package node_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"coleader/internal/node"
	"coleader/internal/pulse"
)

func TestStateStrings(t *testing.T) {
	cases := map[node.State]string{
		node.StateUndecided: "Undecided",
		node.StateLeader:    "Leader",
		node.StateNonLeader: "Non-Leader",
		node.State(9):       "State?",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestZeroStatus pins the zero value's meaning: an undecided, live,
// unoriented, healthy node — so machines need no constructor boilerplate
// to report a sensible initial status.
func TestZeroStatus(t *testing.T) {
	var st node.Status
	if st.State != node.StateUndecided || st.Terminated || st.HasOrientation || st.Err != nil {
		t.Errorf("zero Status = %+v", st)
	}
	if st.CWPort != pulse.Port0 {
		t.Errorf("zero CWPort = %v", st.CWPort)
	}
}

// TestStatusFitsInRegisters: the Go compiler passes a struct in registers
// only while it has at most four top-level fields, and every engine reads
// a machine's Status after every handler (the simulator's afterHandler,
// the checker's stepper, the live runtime's run loop). A fifth field
// makes each of those interface calls return through memory; group new
// fields into an embedded struct, as Orientation does.
func TestStatusFitsInRegisters(t *testing.T) {
	if n := reflect.TypeOf(node.Status{}).NumField(); n > 4 {
		t.Errorf("node.Status has %d top-level fields; at most 4 keep it in registers on every engine's per-handler Status call", n)
	}
}

// TestStatusOrientationPromoted: the embedded Orientation's fields read
// and encode as Status's own.
func TestStatusOrientationPromoted(t *testing.T) {
	st := node.Status{Orientation: node.Orientation{HasOrientation: true, CWPort: pulse.Port1}}
	if !st.HasOrientation || st.CWPort != pulse.Port1 {
		t.Errorf("promoted fields = %v, %v", st.HasOrientation, st.CWPort)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"State":0,"Terminated":false,"HasOrientation":true,"CWPort":1,"Err":null}`; string(b) != want {
		t.Errorf("JSON = %s, want %s", b, want)
	}
}
