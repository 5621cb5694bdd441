package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRejectsBadInput: malformed flags and configurations the checker
// rejects before exploring are input errors — returned to main, which
// prints them on stderr — and never a VIOLATION report on stdout.
func TestRejectsBadInput(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-ids", "3,1,2", "-faults", "loss", "-fault-budget", "-1"}, "-fault-budget must not be negative"},
		{[]string{"-ids", "3,1,2", "-max-states", "0"}, "-max-states must be positive"},
		{[]string{"-ids", "0,1"}, "ID must be positive"},
		{[]string{"-algo", "alg1", "-ids", "0,1"}, "ID must be positive"},
		{[]string{}, "-ids"},
		{[]string{"-ids", "3,x"}, `bad ID "x"`},
		{[]string{"-algo", "alg3", "-ids", "3,1,2", "-flips", "0,2,1"}, `bad port flip "2"`},
		{[]string{"-algo", "alg3", "-ids", "3,1,2", "-flips", "0,1"}, "-flips lists 2 nodes but -ids lists 3"},
		{[]string{"-algo", "alg4", "-ids", "3,1,2"}, "unknown algorithm"},
		{[]string{"-ids", "3,1,2", "-faults", "loss", "-fault-masks", "0x100"}, "bad corrupt mask"},
		{[]string{"-ids", "3,1,2", "-faults", "bogus"}, "bogus"},
		{[]string{"-ids", "0,1", "-json"}, "ID must be positive"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || errors.Is(err, errNotVerified) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want an input error containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%q: wrote a report for bad input:\n%s", tc.args, out.String())
		}
	}
}

// TestVerdicts: an exploration that runs prints its report on stdout;
// one that does not verify the instance returns errNotVerified, with a
// VIOLATION (and witness) only when a schedule actually failed.
func TestVerdicts(t *testing.T) {
	cases := []struct {
		args    []string
		ok      bool
		want    string
		without string
	}{
		{[]string{"-algo", "alg2", "-ids", "3,1,2"}, true, "OK: every schedule verified.", "VIOLATION"},
		{[]string{"-algo", "alg3", "-ids", "3,1,2", "-flips", "0,1,0"}, true, "states explored:  550", "VIOLATION"},
		{[]string{"-algo", "alg2", "-ids", "3,1,2", "-faults", "loss,crash,corrupt"}, true, "injection edges:  1189", "VIOLATION"},
		{[]string{"-algo", "alg2-unguarded", "-ids", "1,3"}, false, "VIOLATION: check: protocol violation", ""},
		{[]string{"-algo", "alg2", "-ids", "5,1,4,2", "-max-states", "10"}, false, "raise the flag", "VIOLATION"},
		{[]string{"-algo", "alg2", "-ids", "3,1,2", "-json"}, true, `"statesVisited": 43`, ""},
		{[]string{"-algo", "alg2-unguarded", "-ids", "1,3", "-json"}, false, `"witness": [`, ""},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if tc.ok && err != nil || !tc.ok && !errors.Is(err, errNotVerified) {
			t.Errorf("%q: err = %v, want ok=%v", tc.args, err, tc.ok)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%q: output lacks %q:\n%s", tc.args, tc.want, out.String())
		}
		if tc.without != "" && strings.Contains(out.String(), tc.without) {
			t.Errorf("%q: output contains %q:\n%s", tc.args, tc.without, out.String())
		}
	}
}
