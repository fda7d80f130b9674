package blockcache

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// claimLoad runs one TryGet load to completion: read via raw, decode to
// the blob's string form sized by its length.
func claimLoad(t *testing.T, cl *Claim, raw string) *Handle {
	t.Helper()
	blob, err := cl.Read(func() ([]byte, error) { return []byte(raw), nil })
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Publish(string(blob), int64(len(blob)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestTryGetAccountingMatchesGetTiered drives the same miss/hit sequence
// through GetTiered and through TryGet+Claim, with the L2 tier off and
// on, and requires identical counters.
func TestTryGetAccountingMatchesGetTiered(t *testing.T) {
	for _, l2 := range []int64{0, 1 << 20} {
		viaGet, viaClaim := NewTiered(1<<20, l2), NewTiered(1<<20, l2)
		keys := []Key{key(1, 0, 0), key(1, 0, 1), {Gen: 1, I: 0, J: 0, Flat: true}, key(1, 0, 0)}
		for _, k := range keys {
			h, err := viaGet.GetTiered(k,
				func() ([]byte, error) { return []byte("blob"), nil },
				func(b []byte) (any, int64, error) { return string(b), int64(len(b)), nil })
			if err != nil {
				t.Fatal(err)
			}
			h.Release()

			h, cl := viaClaim.TryGet(k)
			if cl != nil {
				h = claimLoad(t, cl, "blob")
			}
			if h == nil || h.Value().(string) != "blob" {
				t.Fatalf("l2=%d key %+v: handle %v", l2, k, h)
			}
			h.Release()
		}
		if a, b := viaGet.Stats(), viaClaim.Stats(); a != b {
			t.Fatalf("l2=%d: GetTiered stats %+v, TryGet stats %+v", l2, a, b)
		}
	}
}

// TestTryGetNeverWaits holds a claim open and checks that TryGet on the
// same key — and, with the tier on, on its other decoded form, whose
// blob is still loading — reports busy at once instead of blocking,
// while GetTiered waits for the claim and shares its result.
func TestTryGetNeverWaits(t *testing.T) {
	c := NewTiered(1<<20, 1<<20)
	k := key(1, 2, 3)
	flat := Key{Gen: 1, I: 2, J: 3, Flat: true}
	_, cl := c.TryGet(k)
	if cl == nil {
		t.Fatal("cold key not claimed")
	}
	if h, cl2 := c.TryGet(k); h != nil || cl2 != nil {
		t.Fatal("TryGet on a claimed key did not report busy")
	}
	if h, cl2 := c.TryGet(flat); h != nil || cl2 != nil {
		t.Fatal("TryGet on a key whose blob is loading did not report busy")
	}
	got := make(chan *Handle)
	go func() {
		h, err := c.GetTiered(k, func() ([]byte, error) {
			t.Error("waiter read the disk")
			return nil, nil
		}, func([]byte) (any, int64, error) {
			t.Error("waiter decoded")
			return nil, 0, nil
		})
		if err != nil {
			t.Error(err)
		}
		got <- h
	}()
	select {
	case <-got:
		t.Fatal("GetTiered returned before the claim was published")
	case <-time.After(20 * time.Millisecond):
	}
	h := claimLoad(t, cl, "blob")
	h2 := <-got
	if h2.Value() != h.Value() {
		t.Fatal("waiter got a different block")
	}
	// The blob is resident now, so the flat form claims and reads from RAM.
	_, cl = c.TryGet(flat)
	if cl == nil {
		t.Fatal("flat form not claimed")
	}
	blob, err := cl.Read(func() ([]byte, error) {
		t.Fatal("L2-resident blob read from disk")
		return nil, nil
	})
	if err != nil || string(blob) != "blob" {
		t.Fatalf("L2 read = %q, %v", blob, err)
	}
	h3, err := cl.Publish("flat", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Handle{h, h2, h3} {
		h.Release()
	}
	if st := c.Stats(); st.PinnedBytes != 0 || st.L2PinnedBytes != 0 || st.Misses != 1 || st.L2Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClaimErrorsReleaseEverything fails claims at each step — the
// read, the decode, and before the read — and requires no pinned bytes
// in either tier, no cached entry, and the error delivered to a waiter.
func TestClaimErrorsReleaseEverything(t *testing.T) {
	boom := errors.New("boom")
	for _, l2 := range []int64{0, 1 << 20} {
		for _, step := range []string{"read", "decode", "abandon"} {
			c := NewTiered(1<<20, l2)
			k := key(1, 0, 0)
			_, cl := c.TryGet(k)
			var wg sync.WaitGroup
			wg.Add(1)
			var waitErr error
			go func() {
				defer wg.Done()
				_, waitErr = c.GetTiered(k,
					func() ([]byte, error) { return nil, boom },
					func([]byte) (any, int64, error) { return nil, 0, boom })
			}()
			var err error
			switch step {
			case "read":
				_, err = cl.Read(func() ([]byte, error) { return nil, boom })
				if err == nil {
					t.Fatal("read error lost")
				}
			case "decode":
				if _, err := cl.Read(func() ([]byte, error) { return []byte("x"), nil }); err != nil {
					t.Fatal(err)
				}
				err = boom
			case "abandon":
				err = boom
			}
			if h, perr := cl.Publish(nil, 0, err); h != nil || perr == nil {
				t.Fatalf("l2=%d %s: Publish = %v, %v", l2, step, h, perr)
			}
			wg.Wait()
			if waitErr == nil {
				t.Fatalf("l2=%d %s: waiter got no error", l2, step)
			}
			st := c.Stats()
			if st.PinnedBytes != 0 || st.L2PinnedBytes != 0 || st.Blocks != 0 || st.ResidentBytes != 0 {
				t.Fatalf("l2=%d %s: stats after failure = %+v", l2, step, st)
			}
		}
	}
}
