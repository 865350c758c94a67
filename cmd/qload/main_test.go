package main

import "testing"

// TestClientOpsSplitsEveryOperation pins the per-client share of -ops:
// the shares add up to -ops exactly and differ by at most one, and a
// divisible -ops gives every client exactly ops/clients (what
// `make qosd-smoke`'s 20000 over 4 clients relies on).
func TestClientOpsSplitsEveryOperation(t *testing.T) {
	for _, tc := range []struct{ ops, clients int }{
		{20000, 4}, {20001, 4}, {20003, 4}, {8, 8}, {9, 8}, {1000003, 8}, {5, 1},
	} {
		cfg := loadConfig{ops: tc.ops, clients: tc.clients}
		total, lo, hi := 0, tc.ops, 0
		for c := 0; c < tc.clients; c++ {
			n := cfg.clientOps(c)
			total += n
			lo, hi = min(lo, n), max(hi, n)
		}
		if total != tc.ops {
			t.Errorf("-ops %d -clients %d: clients run %d operations", tc.ops, tc.clients, total)
		}
		if lo < 1 || hi-lo > 1 {
			t.Errorf("-ops %d -clients %d: shares range over [%d, %d]", tc.ops, tc.clients, lo, hi)
		}
		if tc.ops%tc.clients == 0 && (lo != tc.ops/tc.clients || hi != lo) {
			t.Errorf("-ops %d -clients %d: divisible run split [%d, %d], want %d each",
				tc.ops, tc.clients, lo, hi, tc.ops/tc.clients)
		}
	}
}
