package lexer_test

import (
	"testing"

	"opendesc/internal/nic"
	"opendesc/internal/p4/lexer"
	"opendesc/internal/p4/token"
)

// BenchmarkScan prices the lexer alone, per bundled description, in ns per
// source byte (the unit the frontend's share of a cold compile is quoted in).
func BenchmarkScan(b *testing.B) {
	for _, m := range nic.All() {
		b.Run(m.Name, func(b *testing.B) {
			b.SetBytes(int64(len(m.Source)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := lexer.New(m.Name, m.Source)
				var t token.Token
				for l.Scan(&t); t.Kind != token.EOF; l.Scan(&t) {
				}
			}
		})
	}
}
