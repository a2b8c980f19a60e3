package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Sample is a float64 that survives JSON: encoding/json refuses NaN and
// ±Inf, but a histogram sum that absorbed a NaN observation must not make
// the whole /debug/timeseries dump unserializable. Non-finite samples
// marshal as null and unmarshal back as NaN — sanitization is a transport
// concern only; in-memory checks see the real values and fail loudly.
type Sample float64

// MarshalJSON implements json.Marshaler.
func (s Sample) MarshalJSON() ([]byte, error) {
	f := float64(s)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, f, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler; null becomes NaN.
func (s *Sample) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*s = Sample(math.NaN())
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*s = Sample(f)
	return nil
}

// DumpSeries is one series in a Dump: identity plus retained samples,
// oldest first.
type DumpSeries struct {
	Key     string            `json:"key"`
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Samples []Sample          `json:"samples"`
}

// Dump is the /debug/timeseries wire format and the soak series-file
// format: everything cmd/obsreport needs to rebuild sparklines and check
// verdicts offline.
type Dump struct {
	IntervalSeconds float64       `json:"interval_seconds,omitempty"`
	Ticks           int64         `json:"ticks"`
	Series          []DumpSeries  `json:"series"`
	Checks          []CheckResult `json:"checks,omitempty"`
}

// Dump snapshots every series and the check verdicts over them, under one
// hold of the sampler's lock, into a serializable report. Nil sampler → nil.
func (s *Sampler) Dump() *Dump {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &Dump{Checks: s.evalChecksLocked()}
	d.Ticks = s.ticks
	d.IntervalSeconds = SampleEvery.Seconds()
	d.Series = make([]DumpSeries, 0, len(s.order))
	for _, sr := range s.order {
		ds := DumpSeries{Key: sr.key, Name: sr.name}
		if len(sr.pairs) > 0 {
			ds.Labels = make(map[string]string, len(sr.pairs))
			for _, p := range sr.pairs {
				ds.Labels[p.K] = p.V
			}
		}
		vals := sr.Values(nil)
		ds.Samples = make([]Sample, len(vals))
		for i, v := range vals {
			ds.Samples[i] = Sample(v)
		}
		d.Series = append(d.Series, ds)
	}
	return d
}

// MarshalJSON-ready bytes of the dump, for handlers and series files.
func (d *Dump) JSON() ([]byte, error) { return json.MarshalIndent(d, "", " ") }

// ParseDump decodes a /debug/timeseries dump (or soak series file).
func ParseDump(b []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("obs: parsing timeseries dump: %w", err)
	}
	return &d, nil
}

// sparkTicks are the eight block glyphs a sparkline quantizes into.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders samples as a unicode sparkline of at most width glyphs,
// min-max normalized; longer series are downsampled by bucket-averaging.
// Non-finite samples render as '·' and are excluded from normalization. An
// all-equal (or single-sample) series renders at half height.
func Sparkline(samples []float64, width int) string {
	if len(samples) == 0 || width <= 0 {
		return ""
	}
	if len(samples) > width {
		samples = downsample(samples, width)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range samples {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			b.WriteRune('·')
		case hi <= lo:
			b.WriteRune(sparkTicks[len(sparkTicks)/2])
		default:
			i := int((v - lo) / (hi - lo) * float64(len(sparkTicks)-1))
			b.WriteRune(sparkTicks[min(max(i, 0), len(sparkTicks)-1)])
		}
	}
	return b.String()
}

// downsample reduces samples to width buckets of finite-mean values; a
// bucket with only non-finite samples stays NaN so the gap remains visible.
func downsample(samples []float64, width int) []float64 {
	out := make([]float64, width)
	for i := range out {
		lo := i * len(samples) / width
		hi := (i + 1) * len(samples) / width
		sum, n := 0.0, 0
		for _, v := range samples[lo:hi] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			sum += v
			n++
		}
		if n == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sum / float64(n)
		}
	}
	return out
}

// WriteMarkdown renders the dump as the obsreport markdown: run metadata,
// a check-verdict table, and a per-series table with unicode sparklines —
// the CI artifact a reviewer skims to see a soak's shape.
func (d *Dump) WriteMarkdown(b *strings.Builder) {
	b.WriteString("# locind time-series report\n\n")
	fmt.Fprintf(b, "- ticks: %d\n", d.Ticks)
	if d.IntervalSeconds > 0 {
		fmt.Fprintf(b, "- nominal interval: %gs\n", d.IntervalSeconds)
	}
	fmt.Fprintf(b, "- series: %d\n", len(d.Series))

	if len(d.Checks) > 0 {
		b.WriteString("\n## Checks\n\n")
		b.WriteString("| check | series | kind | verdict | detail |\n")
		b.WriteString("|---|---|---|---|---|\n")
		for _, c := range d.Checks {
			verdict := "✅ ok"
			if !c.OK {
				verdict = "❌ FAIL"
			}
			fmt.Fprintf(b, "| %s | `%s` | %s | %s | %s |\n",
				c.Name, c.Series, c.Kind, verdict, mdEscape(c.Detail))
		}
	}

	b.WriteString("\n## Series\n\n")
	b.WriteString("| series | samples | last | min | max | shape |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, ds := range d.Series {
		vals := make([]float64, len(ds.Samples))
		for i, v := range ds.Samples {
			vals[i] = float64(v)
		}
		last, lo, hi := seriesStats(vals)
		fmt.Fprintf(b, "| `%s` | %d | %s | %s | %s | %s |\n",
			ds.Key, len(vals), fmtSample(last), fmtSample(lo), fmtSample(hi),
			Sparkline(vals, 40))
	}
}

// seriesStats returns the last sample and the finite min/max (NaN when the
// series is empty or has no finite samples).
func seriesStats(vals []float64) (last, lo, hi float64) {
	last, lo, hi = math.NaN(), math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if len(vals) > 0 {
		last = vals[len(vals)-1]
	}
	if lo > hi {
		lo, hi = math.NaN(), math.NaN()
	}
	return last, lo, hi
}

// fmtSample renders a sample compactly for tables ("—" when non-finite).
func fmtSample(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "—"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// mdEscape keeps check details from breaking the markdown table.
func mdEscape(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
