package core

// Content-addressed memo (S25). A fleet controller compiles one layout per
// (description digest, intent) pair, not per host: sixty-four hosts drawn
// from six NIC families share six entries. Results are immutable after
// Compile, so sharing one *Result across hosts is safe (each host builds its
// own accessor runtime).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// SourceDigest is the content address of a P4 interface description:
// sha256 over the exact source text. Hosts self-report it in their
// describe answer and the controller recomputes it — a mismatch is a
// quarantine reason, and the recomputed value is the cache key, so a
// tampered description can never alias a trusted entry.
func SourceDigest(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// CacheKey addresses one compiled layout: what was compiled (the
// description digest) and what it was compiled for (the canonical intent).
type CacheKey struct {
	Digest string
	Intent string
}

// IntentKey renders an intent canonically: its field set in sorted order
// with per-field width/cost/required flags. Two default-option compiles
// with equal IntentKey and equal SourceDigest are interchangeable.
func IntentKey(intent *Intent) string {
	fields := make([]string, 0, len(intent.Fields))
	for _, f := range intent.Fields {
		fields = append(fields, fmt.Sprintf("%s:%s:%d:%g:%t",
			f.FieldName, f.Semantic, f.WidthBits, f.CostOverride, f.Required))
	}
	sort.Strings(fields)
	return fmt.Sprintf("fields=%v", fields)
}

// CompileKey builds the cache key for compiling a description (by digest)
// under an intent with default compile options.
func CompileKey(sourceDigest string, intent *Intent) CacheKey {
	return CacheKey{Digest: sourceDigest, Intent: IntentKey(intent)}
}

// Memo computes each key's value once and keeps it, error included, for the
// memo's life: a value is a pure function of its content-addressed key, so a
// failed compute would fail again. Callers that arrive while a key is being
// computed wait for that one compute. The zero value is ready; a Memo must
// not be copied after first use.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Get returns key's value, running compute for it only if no earlier call
// has.
func (m *Memo[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		if m.entries == nil {
			m.entries = make(map[K]*memoEntry[V])
		}
		e = new(memoEntry[V])
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

// Len is the number of keys computed or being computed.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
