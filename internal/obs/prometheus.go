package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the tracer's
// counters, gauges and histograms. Internal dotted names map to a
// sprout_ namespace ("wal.append_ms" -> "sprout_wal_append_ms"),
// WithLabels suffixes become real Prometheus labels, counters gain the
// conventional _total suffix, and each histogram family is emitted as
// cumulative _bucket series plus _sum/_count and three companion gauge
// families (_p50/_p95/_p99) with quantiles interpolated from the fixed
// buckets — so an SLO dashboard needs no histogram_quantile() at all.

// PromContentType is the Content-Type of the exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromOptions configure the exposition.
type PromOptions struct {
	// Labels are alternating key/value pairs attached to every series
	// (e.g. "replica", "a", "shard", "a").
	Labels []string
}

// promName maps an internal dotted metric name to a Prometheus metric
// name: sprout_ namespace, [.-] -> _, any other invalid rune -> _.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("sprout_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelValue escapes a label value per the exposition format.
func promLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promLabels renders alternating key/value pairs as a {k="v",...} block
// ("" when empty). Pairs must already be in emission order.
func promLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(promLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat formats a sample value; integral floats print without an
// exponent so counters read naturally.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLine is one fully-labeled sample pending emission. Suffix extends
// the family name ("_bucket", "_sum", "" ...); labels are alternating
// kv pairs emitted after the global ones.
type promLine struct {
	suffix string
	labels []string
	value  float64
}

// promFamily groups the samples of one metric family under a single
// HELP/TYPE header, as the exposition format requires.
type promFamily struct {
	name string // Prometheus family name (incl. _total for counters)
	typ  string
	help string
	rows []promLine
}

// familySet accumulates families keyed by name in first-use order.
type familySet struct {
	byName map[string]*promFamily
	order  []string
}

func (fs *familySet) add(name, typ, help string, rows ...promLine) {
	if fs.byName == nil {
		fs.byName = map[string]*promFamily{}
	}
	f, ok := fs.byName[name]
	if !ok {
		f = &promFamily{name: name, typ: typ, help: help}
		fs.byName[name] = f
		fs.order = append(fs.order, name)
	}
	f.rows = append(f.rows, rows...)
}

// WritePrometheus writes the tracer's metrics in Prometheus text format.
// A nil or disabled tracer writes nothing (an empty, valid exposition).
func (t *Tracer) WritePrometheus(w io.Writer, opts PromOptions) error {
	if !t.Enabled() {
		return nil
	}
	if len(opts.Labels)%2 != 0 {
		return fmt.Errorf("obs: prometheus: odd global label count")
	}
	counters, hists := t.MetricsSnapshot()
	gauges := t.GaugesSnapshot()
	var fs familySet

	for _, name := range sortedKeys(counters) {
		base, labels := splitName(name)
		fs.add(promName(base)+"_total", "counter", registeredHelp(base),
			promLine{labels: labels, value: float64(counters[name])})
	}
	for _, name := range sortedKeys(gauges) {
		base, labels := splitName(name)
		fs.add(promName(base), "gauge", registeredHelp(base),
			promLine{labels: labels, value: float64(gauges[name])})
	}
	for _, name := range sortedKeys(hists) {
		base, labels := splitName(name)
		help := registeredHelp(base)
		s := hists[name]
		pn := promName(base)
		rows := make([]promLine, 0, len(s.Bounds)+3)
		var cum int64
		for i, bound := range s.Bounds {
			if i < len(s.Buckets) {
				cum += s.Buckets[i]
			}
			rows = append(rows, promLine{
				suffix: "_bucket",
				labels: append(append([]string(nil), labels...), "le", promFloat(bound)),
				value:  float64(cum),
			})
		}
		rows = append(rows,
			promLine{suffix: "_bucket", labels: append(append([]string(nil), labels...), "le", "+Inf"), value: float64(s.Count)},
			promLine{suffix: "_sum", labels: labels, value: s.Sum},
			promLine{suffix: "_count", labels: labels, value: float64(s.Count)},
		)
		fs.add(pn, "histogram", help, rows...)
		for _, q := range []struct {
			suffix string
			v      float64
		}{{"_p50", s.P50}, {"_p95", s.P95}, {"_p99", s.P99}} {
			fs.add(pn+q.suffix, "gauge", help+" ("+strings.TrimPrefix(q.suffix, "_")+" estimate)",
				promLine{labels: labels, value: q.v})
		}
	}

	for _, name := range fs.order {
		f := fs.byName[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, row := range f.rows {
			all := append(append([]string(nil), opts.Labels...), row.labels...)
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, row.suffix, promLabels(all), promFloat(row.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// registeredHelp returns the registry HELP text for a base name ("" when
// the name resolves to nothing — foreign fleet snapshots may carry names
// a newer replica registered).
func registeredHelp(base string) string {
	if d, ok := lookupMetric(base); ok {
		return d.Help
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
