package topology_test

import (
	"context"
	"fmt"
	"strings"

	"bufqos/internal/topology"
)

// A scenario is one JSON document: links with per-hop schemes, flows
// with routes and (σ, ρ) envelopes, and an optional event timeline.
// Parse validates everything (routes against links, envelope sanity, a
// trial build of each scheme) before Run simulates it; runs are
// deterministic for a fixed seed.
func ExampleParse() {
	const doc = `{
	  "name": "one-hop",
	  "links": [
	    {"from": "a", "to": "b", "rate": "48Mbit/s", "buffer": "500KB",
	     "scheme": "fifo+threshold"}
	  ],
	  "flows": [
	    {"name": "conf", "route": ["a", "b"], "source": "greedy", "shaped": true,
	     "spec": {"peak": "16Mbit/s", "token": "8Mbit/s", "bucket": "50KB"}},
	    {"name": "rival", "route": ["a", "b"], "source": "greedy", "shaped": true,
	     "spec": {"peak": "48Mbit/s", "token": "24Mbit/s", "bucket": "100KB"}}
	  ]
	}`
	topo, err := topology.Parse(strings.NewReader(doc))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := topology.Run(context.Background(), topo, topology.Options{Duration: 1, Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	for i, f := range res.Flows {
		fmt.Printf("%s: admitted=%v conformant drops=%d\n",
			topo.Flows[i].Name, f.Admitted, res.Links[0].Flows[i].ConformantDropped.Packets)
	}
	// Output:
	// conf: admitted=true conformant drops=0
	// rival: admitted=true conformant drops=0
}
