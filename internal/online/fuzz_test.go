package online_test

import (
	"bytes"
	"os"
	"testing"

	"bufqos/internal/online"
	"bufqos/internal/validate"
)

// oversized are instance files whose exact solution once overflowed the
// solver's size guard: too many queues, and a horizon near MaxInt64.
var oversized = []string{"testdata/oversized/queues.json", "testdata/oversized/horizon.json"}

// TestOversizedInstancesError replays the oversized files: they parse,
// and Opt, Run and Evaluate each return an error instead of panicking.
func TestOversizedInstancesError(t *testing.T) {
	for _, path := range oversized {
		in, err := online.LoadInstance(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := online.Opt(in); err == nil {
			t.Errorf("%s: Opt accepted the instance", path)
		}
		for _, p := range online.Policies() {
			if p.Model != in.Model {
				continue
			}
			if _, err := online.Run(p, in); err == nil {
				t.Errorf("%s: Run(%s) accepted the instance", path, p.Name)
			}
			if _, err := online.Evaluate(p, in); err == nil {
				t.Errorf("%s: Evaluate(%s) accepted the instance", path, p.Name)
			}
		}
	}
}

// fuzzSmall bounds the instances FuzzInstance evaluates, so the exact
// solver answers each in well under a millisecond.
func fuzzSmall(in *online.Instance) bool {
	if in.Queues > 8 || len(in.Arrivals) > 32 {
		return false
	}
	for _, a := range in.Arrivals {
		if a.At > 64 {
			return false
		}
	}
	return true
}

// FuzzInstance feeds arbitrary bytes to Parse. Every parsed instance
// small enough for the exact solver is evaluated under every policy of
// its model: no policy may panic, beat the offline optimum, or keep a
// packet after the buffer drains.
func FuzzInstance(f *testing.F) {
	for _, path := range oversized {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, name := range []string{"lb-multiqueue", "lb-twovalue"} {
		adv, err := validate.AdversaryByName(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := adv.Gen(nil, online.Policy{}, 3, 2).Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		`{"model":"shared","queues":1,"buffer":1,"arrivals":[]}`,
		`{"model":"shared","queues":2,"buffer":9223372036854775807,"arrivals":[{"at":0,"queue":1,"value":1e308},{"at":0,"queue":1,"value":1e308}]}`,
		`{"model":"multiqueue","queues":3,"buffer":4611686018427387904,"arrivals":[{"at":3,"queue":2,"value":0.5},{"at":0,"queue":0,"value":5e-324}]}`,
		`{"model":"shared","queues":3,"buffer":2,"arrivals":[{"at":1,"queue":2,"value":1},{"at":1,"queue":0,"value":8},{"at":0,"queue":1,"value":8}]}`,
		`{"model":"multiqueue","queues":2,"buffer":1,"arrivals":[{"at":0,"queue":2,"value":1}]}`,
		`{"model":"shared","queues":1,"buffer":1,"arrivals":null}`,
		`{"model":"shared","queues":1,"buffer":1,"arrivals":[{"at":-1,"queue":0,"value":1}]}`,
		`{"model":"shared","queues":1,"buffer":0}`,
		`{"model":"tree"}`,
		`{"queues":1}{"queues":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := online.Parse(bytes.NewReader(data))
		if err != nil || !fuzzSmall(in) {
			return
		}
		for _, p := range online.Policies() {
			if p.Model != in.Model {
				continue
			}
			out, err := online.Evaluate(p, in)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if out.ALG > out.OPT*(1+1e-9) {
				t.Fatalf("%s: ALG %v beats OPT %v", p.Name, out.ALG, out.OPT)
			}
			runAdapter(t, p, in)
		}
	})
}
