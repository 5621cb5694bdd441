package core_test

import (
	"bytes"
	"testing"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
)

// encoder is the encoding surface the checker and the fault plane use:
// SnapshotTo feeds the undo arena, the memo key, Corrupt and
// PerturbBytes.
type encoder interface {
	node.PulseMachine
	node.Undoable
}

// drive runs Init, then delivers one pulse per entry of ports.
func drive(m node.PulseMachine, ports ...pulse.Port) {
	m.Init(discardEmitter{})
	for _, p := range ports {
		m.OnMsg(p, pulse.Pulse{}, discardEmitter{})
	}
}

func repeatPort(p pulse.Port, k int) []pulse.Port {
	out := make([]pulse.Port, k)
	for i := range out {
		out[i] = p
	}
	return out
}

// TestEncodingLayoutsPinned pins the SnapshotTo bytes of every core
// machine at one fixed mid-run state. Corrupt XORs the last snapshot
// byte and PerturbBytes flips random snapshot positions, so a layout
// change silently moves what the fault census injects; this test makes
// such a change a deliberate edit of the golden slices.
func TestEncodingLayoutsPinned(t *testing.T) {
	cases := []struct {
		name     string
		build    func() (encoder, error)
		ports    []pulse.Port
		wantSnap []byte
	}{
		{
			// Five clockwise arrivals: rho_cw lands on ID, Leader.
			name:  "alg1",
			build: func() (encoder, error) { return core.NewAlg1(5, pulse.Port1) },
			ports: repeatPort(pulse.Port0, 5),
			wantSnap: []byte{
				0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rho_cw
				0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sig_cw
				0x01, // state: Leader
			},
		},
		{
			// Two clockwise arrivals elect the node; two counterclockwise
			// arrivals fire the line 14-15 termination pulse.
			name:  "alg2",
			build: func() (encoder, error) { return core.NewAlg2(2, pulse.Port1) },
			ports: []pulse.Port{pulse.Port0, pulse.Port0, pulse.Port1, pulse.Port1},
			wantSnap: []byte{
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rho_cw
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sig_cw
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rho_ccw
				0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sig_ccw
				0x11, // flags: Leader | termSent
			},
		},
		{
			// One counterclockwise arrival before the guard terminates the
			// ablated machine prematurely.
			name:  "alg2-unguarded",
			build: func() (encoder, error) { return core.NewAlg2Unguarded(3, pulse.Port1) },
			ports: []pulse.Port{pulse.Port1},
			wantSnap: []byte{
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rho_cw
				0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sig_cw
				0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rho_ccw
				0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sig_ccw
				0x20, // flags: terminated
			},
		},
		{
			// rho_0 reaches ID^(1) = 4 (Leader, oriented, Port1 clockwise),
			// then two relays the other way.
			name:  "alg3",
			build: func() (encoder, error) { return core.NewAlg3(2, core.SchemeDoubled) },
			ports: append(repeatPort(pulse.Port0, 4), pulse.Port1, pulse.Port1),
			wantSnap: []byte{
				0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rho_0
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rho_1
				0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sig_0
				0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sig_1
				0x31, // flags: Leader | oriented | cwPort 1
			},
		},
		{
			// Both counts pass ID, so the node has resampled its ID.
			name: "alg3-resample",
			build: func() (encoder, error) {
				return core.NewAlg3Resample(2, core.SchemeSuccessor, 7)
			},
			ports: append(repeatPort(pulse.Port0, 5), repeatPort(pulse.Port1, 5)...),
			wantSnap: []byte{
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // vid_0
				0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // vid_1
				0x46, 0x74, 0xdf, 0x7d, 0x2c, 0x6d, 0xa6, 0xda, // PRNG state
				0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // resamples
				0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rho_0
				0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rho_1
				0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sig_0
				0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sig_1
				0x12, // flags: NonLeader | oriented
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			drive(m, tc.ports...)
			if got := m.SnapshotTo(nil); !bytes.Equal(got, tc.wantSnap) {
				t.Errorf("SnapshotTo = %#v\nwant        %#v", got, tc.wantSnap)
			}
		})
	}
}
