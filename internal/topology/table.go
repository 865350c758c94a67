package topology

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bufqos/internal/stats"
)

// WriteFlowTable writes the per-flow end-to-end table, aggregating the
// runs (mean ± 95% CI over the replications, the paper's reporting
// convention).
func WriteFlowTable(w io.Writer, t *Topology, results []Result) error {
	if len(results) == 0 {
		return fmt.Errorf("topology %s: no results", t.Name)
	}
	fmt.Fprintf(w, "topology %s: %d flows, %d links, %d runs of %.3gs\n",
		t.Name, len(t.Flows), len(t.Links), len(results), results[0].Duration)
	fmt.Fprintf(w, "%-12s %-22s %-7s %-9s %-18s %-18s %-8s %-16s %s\n",
		"flow", "route", "source", "admitted", "delivered (Mb/s)", "goodput (Mb/s)", "retx", "mean delay (ms)", "status")
	for fi := range t.Flows {
		f := &t.Flows[fi]
		var thr, goodput, retx, delay []float64
		admitted := 0
		status := ""
		for ri := range results {
			fr := &results[ri].Flows[fi]
			if fr.Admitted {
				admitted++
				thr = append(thr, fr.Throughput.Mbits())
				delay = append(delay, fr.MeanDelay*1000)
				if f.Source == SourceTCP {
					goodput = append(goodput, fr.GoodputRate.Mbits())
					retx = append(retx, float64(fr.Retransmits))
				}
			}
			if fr.Degraded {
				status = "degraded"
			}
			if fr.Left {
				status = strings.TrimSpace(status + " left")
			}
		}
		switch {
		case admitted == 0 && results[0].Flows[fi].JoinAt > results[0].Duration:
			status = strings.TrimSpace("not joined " + status) // its join lies past the horizon
		case admitted == 0:
			status = strings.TrimSpace("rejected " + status)
		}
		fmt.Fprintf(w, "%-12s %-22s %-7s %2d/%-6d %-18s %-18s %-8s %-16s %s\n",
			f.Name, strings.Join(f.RouteNodes, "-"), f.Source,
			admitted, len(results), summaryOrDash(thr), summaryOrDash(goodput),
			summaryOrDash(retx), summaryOrDash(delay), status)
	}
	if rej := rejectionLines(results); len(rej) > 0 {
		fmt.Fprintln(w, "rejections:")
		for _, line := range rej {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	return nil
}

// WriteLinkTable writes the per-link table aggregated over the runs.
func WriteLinkTable(w io.Writer, t *Topology, results []Result) error {
	if len(results) == 0 {
		return fmt.Errorf("topology %s: no results", t.Name)
	}
	fmt.Fprintf(w, "%-14s %-24s %-10s %-9s %-16s %-14s %s\n",
		"link", "scheme", "rate", "buffer", "utilization", "drops (pkts)", "conf. drops")
	for li := range t.Links {
		l := &t.Links[li]
		var util, drops, confDrops []float64
		for ri := range results {
			lr := &results[ri].Links[li]
			util = append(util, lr.Utilization)
			drops = append(drops, float64(lr.DroppedPackets()))
			var cd int64
			for fi := range lr.Flows {
				cd += lr.Flows[fi].ConformantDropped.Packets
			}
			confDrops = append(confDrops, float64(cd))
		}
		fmt.Fprintf(w, "%-14s %-24s %-10v %-9v %-16s %-14s %s\n",
			l.Name, l.Spec, l.Rate, l.Buffer,
			stats.Summarize(util).String(), stats.Summarize(drops).String(),
			stats.Summarize(confDrops).String())
	}
	return nil
}

func summaryOrDash(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	return stats.Summarize(v).String()
}

func rejectionLines(results []Result) []string {
	var lines []string
	for ri := range results {
		for _, rej := range results[ri].Rejections {
			lines = append(lines, fmt.Sprintf("seed %d t=%.3g: flow %s at link %s: %s",
				results[ri].Seed, rej.At, rej.Flow, rej.Link, rej.Reason))
		}
	}
	return lines
}

// WriteFlowCSV emits one row per (run, flow) with the end-to-end
// measurements, machine-readable for downstream analysis.
func WriteFlowCSV(w io.Writer, t *Topology, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"run", "seed", "flow", "route", "source", "admitted", "degraded", "left",
		"join_s", "leave_s", "offered_bytes", "delivered_bytes", "delivered_packets",
		"throughput_mbps", "goodput_bytes", "goodput_mbps", "retransmits",
		"mean_delay_ms", "max_delay_ms",
	}); err != nil {
		return err
	}
	for ri := range results {
		res := &results[ri]
		for fi := range t.Flows {
			fr := &res.Flows[fi]
			rec := []string{
				strconv.Itoa(ri),
				strconv.FormatInt(res.Seed, 10),
				t.Flows[fi].Name,
				strings.Join(t.Flows[fi].RouteNodes, "-"),
				string(t.Flows[fi].Source),
				strconv.FormatBool(fr.Admitted),
				strconv.FormatBool(fr.Degraded),
				strconv.FormatBool(fr.Left),
				fmtG(fr.JoinAt), fmtG(fr.LeaveAt),
				strconv.FormatInt(int64(fr.Offered.Bytes), 10),
				strconv.FormatInt(int64(fr.Delivered.Bytes), 10),
				strconv.FormatInt(fr.Delivered.Packets, 10),
				fmtG(fr.Throughput.Mbits()),
				strconv.FormatInt(int64(fr.Goodput.Bytes), 10),
				fmtG(fr.GoodputRate.Mbits()),
				strconv.FormatInt(fr.Retransmits, 10),
				fmtG(fr.MeanDelay * 1000),
				fmtG(fr.MaxDelay * 1000),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLinkCSV emits one row per (run, link, flow) with the per-hop
// counters, including the router's forwarding diagnostics.
func WriteLinkCSV(w io.Writer, t *Topology, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"run", "seed", "link", "flow", "offered_bytes", "dropped_bytes",
		"conformant_dropped_bytes", "departed_bytes", "forwarded_packets",
	}); err != nil {
		return err
	}
	for ri := range results {
		res := &results[ri]
		for li := range t.Links {
			for fi := range t.Flows {
				lf := &res.Links[li].Flows[fi]
				rec := []string{
					strconv.Itoa(ri),
					strconv.FormatInt(res.Seed, 10),
					t.Links[li].Name,
					t.Flows[fi].Name,
					strconv.FormatInt(int64(lf.Offered.Bytes), 10),
					strconv.FormatInt(int64(lf.Dropped.Bytes), 10),
					strconv.FormatInt(int64(lf.ConformantDropped.Bytes), 10),
					strconv.FormatInt(int64(lf.Departed.Bytes), 10),
					strconv.FormatInt(lf.Forwarded, 10),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
