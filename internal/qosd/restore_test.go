package qosd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"bufqos/internal/topology"
)

// FuzzRestore sends an arbitrary body to /v1/restore on a daemon that
// already books flows. Nothing may panic; a refused body must leave
// /v1/snapshot byte-identical; and the snapshot after an accepted body,
// restored into a fresh daemon, must read back byte-identical. The
// seeds are snapshots of the shipped topologies after a few joins, whole
// and cut in half.
func FuzzRestore(f *testing.F) {
	paths, err := filepath.Glob("../../topologies/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no shipped topologies (%v)", err)
	}
	var topos []*topology.Topology
	for _, p := range paths {
		topo, err := topology.Load(p)
		if err != nil {
			f.Fatal(err)
		}
		topos = append(topos, topo)
	}
	for i, topo := range topos {
		snap := snapshotBytes(f, booking(f, topo, 6))
		f.Add(uint8(i), snap)
		f.Add(uint8(i), snap[:len(snap)/2])
	}
	f.Add(uint8(0), []byte(`{"flows":[{"flow":"x","links":[],"spec":{}}]}`))
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		topo := topos[int(which)%len(topos)]
		s := booking(t, topo, 3)
		before := snapshotBytes(t, s)
		code, answer := serveBody(s, "/v1/restore", body)
		after := snapshotBytes(t, s)
		if code != http.StatusOK {
			if !bytes.Equal(before, after) {
				t.Fatalf("refused restore (%d %s) changed the snapshot:\n%s\nto\n%s", code, answer, before, after)
			}
			return
		}
		fresh := booking(t, topo, 0)
		if code, answer := serveBody(fresh, "/v1/restore", after); code != http.StatusOK {
			t.Fatalf("a fresh daemon refused the snapshot of an accepted restore: %d %s\n%s", code, answer, after)
		}
		if again := snapshotBytes(t, fresh); !bytes.Equal(after, again) {
			t.Fatalf("snapshot of an accepted restore did not read back:\n%s\nvs\n%s", after, again)
		}
	})
}

// booking is a daemon over topo that has joined the first n of its
// declared flows, on their declared routes.
func booking(tb testing.TB, topo *topology.Topology, n int) *Server {
	s, err := New(topo, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range topo.Flows[:min(n, len(topo.Flows))] {
		links := make([]string, len(f.Route))
		for i, li := range f.Route {
			links[i] = s.linkNames[li]
		}
		if _, err := s.Join(f.Name, links, f.Spec); err != nil {
			tb.Fatalf("%s: join %s: %v", topo.Name, f.Name, err)
		}
	}
	return s
}

// snapshotBytes is the body of GET /v1/snapshot.
func snapshotBytes(tb testing.TB, s *Server) []byte {
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
	if w.Code != http.StatusOK {
		tb.Fatalf("snapshot: %d %s", w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes()
}
