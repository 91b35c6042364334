package main

import (
	"fmt"
	"io"
	"sort"

	"pop/internal/obs"
)

// spanTotal is the time of every span of one name in a trace.
type spanTotal struct {
	name          string
	count         int
	totalMs, self float64
}

// selfTimes nests the trace's spans by wall-clock containment (lanes are
// display rows, not scopes: a worker's shard.handler runs on its own lane
// inside the coordinator's shard.step) and returns, per span name, the
// total time and the self time — a span's duration minus the part of it
// its direct children cover, with overlapping children counted once.
func selfTimes(events []obs.Event) []spanTotal {
	var spans []obs.Event
	for _, e := range events {
		if e.Phase == "X" {
			spans = append(spans, e)
		}
	}
	// Parents sort before their children: earlier start first, and of two
	// spans starting together the longer one.
	sort.SliceStable(spans, func(a, b int) bool {
		if spans[a].TS != spans[b].TS {
			return spans[a].TS < spans[b].TS
		}
		return spans[a].Dur > spans[b].Dur
	})
	type node struct {
		ev       obs.Event
		covered  float64 // length of the union of the children seen so far
		coverEnd float64 // end of that union's last interval
	}
	totals := map[string]*spanTotal{}
	var order []string
	book := func(n *node) {
		t := totals[n.ev.Name]
		t.count++
		t.totalMs += n.ev.Dur / 1e3
		t.self += (n.ev.Dur - n.covered) / 1e3
	}
	var stack []*node
	for _, e := range spans {
		for len(stack) > 0 && !stack[len(stack)-1].ev.Contains(e) {
			book(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			// Children arrive in start order, so the union grows at its end.
			p := stack[len(stack)-1]
			from := max(e.TS, p.coverEnd)
			if e.End() > from {
				p.covered += e.End() - from
				p.coverEnd = e.End()
			}
		}
		if totals[e.Name] == nil {
			totals[e.Name] = &spanTotal{name: e.Name}
			order = append(order, e.Name)
		}
		stack = append(stack, &node{ev: e, coverEnd: e.TS})
	}
	for len(stack) > 0 {
		book(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
	}
	out := make([]spanTotal, len(order))
	for i, name := range order {
		out[i] = *totals[name]
	}
	return out
}

func printSelfTimes(w io.Writer, events []obs.Event) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range selfTimes(events) {
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f\n", t.name, t.count, t.totalMs, t.self)
	}
}
