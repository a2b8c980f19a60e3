package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families sorted by name and series by label
// signature, so consecutive scrapes of an idle registry are byte-identical.
// The whole exposition is rendered into b; exposition is a cold path and
// the in-memory builder cannot fail, which keeps callers' error handling
// trivial.
func (r *Registry) WritePrometheus(b *strings.Builder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ordered := append([]*series(nil), r.series...)
	r.mu.Unlock()
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].name != ordered[j].name {
			return ordered[i].name < ordered[j].name
		}
		return ordered[i].labels < ordered[j].labels
	})
	lastFamily := ""
	for _, s := range ordered {
		if s.name != lastFamily {
			lastFamily = s.name
			if s.help != "" {
				fmt.Fprintf(b, "# HELP %s %s\n", s.name, s.help)
			}
			fmt.Fprintf(b, "# TYPE %s %s\n", s.name, map[metricKind]string{
				kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram",
			}[s.kind])
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(b, "%s%s %d\n", s.name, wrapLabels(s.labels), s.c.Value())
		case kindGauge:
			fmt.Fprintf(b, "%s%s %d\n", s.name, wrapLabels(s.labels), s.g.Value())
		case kindHistogram:
			writeHistogram(b, s)
		}
	}
}

func wrapLabels(ls string) string {
	if ls == "" {
		return ""
	}
	return "{" + ls + "}"
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet.
func writeHistogram(b *strings.Builder, s *series) {
	h := s.h
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", s.name, wrapLabels(joinLabels(s.labels, `le="`+formatFloat(ub)+`"`)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", s.name, wrapLabels(joinLabels(s.labels, `le="+Inf"`)), h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", s.name, wrapLabels(s.labels), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", s.name, wrapLabels(s.labels), h.Count())
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, no exponent for typical bucket bounds.
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
