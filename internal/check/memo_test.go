package check

import (
	"errors"
	"fmt"
	"testing"
)

// TestFingerprintFixed pins the hash: it is unseeded by design, so
// explorations (and any audited collision) reproduce across runs and
// machines. These constants changing means every recorded fingerprint
// observation (e.g. an audited collision) silently invalidates — bump
// them only deliberately.
func TestFingerprintFixed(t *testing.T) {
	cases := map[string]uint64{
		"":                 0x9e3779b97f4a7c15,
		"a":                0x80151ee5a800655,
		"0123456789abcdef": 0xde427690e739a3c0,
	}
	for in, want := range cases {
		if got := fingerprint([]byte(in)); got != want {
			t.Errorf("fingerprint(%q) = %#x, want %#x", in, got, want)
		}
	}
	// Length separates keys that share a word prefix.
	if fingerprint([]byte("abcdefgh")) == fingerprint([]byte("abcdefgh\x00")) {
		t.Error("length not folded into the hash")
	}
}

// TestFpMemo exercises the open-addressing set: duplicates, the reserved
// zero value, and growth well past the initial table size.
func TestFpMemo(t *testing.T) {
	m := newFpMemo()
	if added, _ := m.insert(0, 0, nil); !added {
		t.Error("first zero fingerprint not added")
	}
	if added, _ := m.insert(0, 0, nil); added {
		t.Error("second zero fingerprint added")
	}
	// SplitMix-style scramble gives well-spread, reproducible values.
	scramble := func(i uint64) uint64 {
		z := i * 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return z ^ (z >> 27)
	}
	const n = 5000 // forces several grows from the 1024-slot start
	for i := uint64(1); i <= n; i++ {
		if added, err := m.insert(0, scramble(i), nil); err != nil || !added {
			t.Fatalf("insert %d: added=%t err=%v", i, added, err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		if added, _ := m.insert(0, scramble(i), nil); added {
			t.Fatalf("duplicate %d re-added after grow", i)
		}
	}
	if m.used != n {
		t.Errorf("used = %d, want %d", m.used, n)
	}
}

// TestAuditMemo: the audit table accepts true duplicates silently and
// fails loudly when two DISTINCT keys share a fingerprint.
func TestAuditMemo(t *testing.T) {
	m := auditMemo{}
	if added, err := m.insert(0, 5, []byte("a")); !added || err != nil {
		t.Fatalf("first insert: added=%t err=%v", added, err)
	}
	if added, err := m.insert(0, 5, []byte("a")); added || err != nil {
		t.Fatalf("duplicate insert: added=%t err=%v", added, err)
	}
	_, err := m.insert(0, 5, []byte("b"))
	if !errors.Is(err, ErrFingerprintCollision) {
		t.Fatalf("collision err = %v, want ErrFingerprintCollision", err)
	}
}

// TestMemoDedup: every mode's table from newMemo admits each state once,
// at any depth class, and recognises it again across class growth.
func TestMemoDedup(t *testing.T) {
	for _, mode := range []MemoMode{MemoFingerprint, MemoAudit} {
		m, err := newMemo(mode)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			key := []byte(fmt.Sprintf("key-%d", i))
			if added, err := m.insert(i%3, fingerprint(key), key); err != nil || !added {
				t.Fatalf("%v: insert %d: added=%t err=%v", mode, i, added, err)
			}
		}
		for i := 0; i < 1000; i++ {
			key := []byte(fmt.Sprintf("key-%d", i))
			if added, err := m.insert(i%3, fingerprint(key), key); err != nil || added {
				t.Fatalf("%v: duplicate %d: added=%t err=%v", mode, i, added, err)
			}
		}
	}
}

// TestMemoModeString covers the mode names used in flags and reports.
func TestMemoModeString(t *testing.T) {
	for mode, want := range map[MemoMode]string{
		MemoFingerprint: "fingerprint",
		MemoAudit:       "audit",
		MemoMode(99):    "memo?",
	} {
		if got := mode.String(); got != want {
			t.Errorf("MemoMode(%d).String() = %q, want %q", mode, got, want)
		}
	}
	if _, err := newMemo(MemoMode(99)); err == nil {
		t.Error("unknown memo mode accepted")
	}
}
