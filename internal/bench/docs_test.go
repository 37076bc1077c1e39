package bench

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsDocumentTheRegistry: EXPERIMENTS.md has exactly one
// "## E<n>" section per registry entry, in registry order, and no other
// second-level section except E7, which is a set of tests rather than a
// table and names them.
func TestExperimentsDocumentTheRegistry(t *testing.T) {
	b, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range Experiments {
		if n, _ := strconv.Atoi(e.ID[1:]); n > 7 && !slices.Contains(want, "E7") {
			want = append(want, "E7")
		}
		want = append(want, strings.ToUpper(e.ID))
	}
	section := regexp.MustCompile(`^## (E\d+) `)
	var got []string
	var e7 strings.Builder
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "## ") {
			m := section.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("%q: EXPERIMENTS.md holds the method above its first section and one section per experiment", line)
				continue
			}
			got = append(got, m[1])
		}
		if len(got) > 0 && got[len(got)-1] == "E7" {
			e7.WriteString(line + "\n")
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("EXPERIMENTS.md sections %v, want the registry's %v", got, want)
	}
	if !regexp.MustCompile(`\bTest[A-Z]\w*`).MatchString(e7.String()) {
		t.Error("the E7 section names no test that runs it")
	}
}
