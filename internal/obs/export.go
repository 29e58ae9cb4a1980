package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of a Registry's instruments, sorted
// by name so every export format is byte-stable.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// CounterSnap is one counter's state.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's state.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistBucket is one histogram bucket: the count of observations at or
// below LeNanos (and above the previous bound). LeNanos == -1 marks the
// overflow (+Inf) bucket.
type HistBucket struct {
	LeNanos int64 `json:"le_ns"`
	Count   int64 `json:"count"`
}

// HistSnap is one histogram's state. Durations are integer nanoseconds
// for exact round-tripping.
type HistSnap struct {
	Name     string       `json:"name"`
	Count    int64        `json:"count"`
	SumNanos int64        `json:"sum_ns"`
	MinNanos int64        `json:"min_ns"`
	MaxNanos int64        `json:"max_ns"`
	Buckets  []HistBucket `json:"buckets"`
}

// Snapshot copies the registry's current state. A nil Registry yields an
// empty (but valid) Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return r.layout.snapshot(r.vals)
}

// Formats lists the export formats WriteTo accepts.
var Formats = []string{"json", "csv", "prom"}

// WriteTo renders the snapshot in the named format ("json", "csv" or
// "prom" for the Prometheus text exposition format).
func (s Snapshot) WriteTo(w io.Writer, format string) error {
	switch format {
	case "json":
		return s.WriteJSON(w)
	case "csv":
		return s.WriteCSV(w)
	case "prom":
		return s.WritePrometheus(w)
	default:
		return fmt.Errorf("obs: unknown export format %q (want one of %s)",
			format, strings.Join(Formats, ", "))
	}
}

// WriteJSON renders the snapshot as indented JSON. Field order is fixed
// by the struct definitions and entries are name-sorted, so equal states
// produce identical bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV renders the snapshot as kind,name,field,value rows: one row
// per counter, two per gauge (value, max), and per histogram a count,
// sum, min and max row followed by one row per bucket (field
// "le_<bound>ns", or "le_inf" for the overflow bucket).
func (s Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "name", "field", "value"}); err != nil {
		return err
	}
	row := func(kind, name, field string, v int64) error {
		return cw.Write([]string{kind, name, field, strconv.FormatInt(v, 10)})
	}
	for _, c := range s.Counters {
		if err := row("counter", c.Name, "value", c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := row("gauge", g.Name, "value", g.Value); err != nil {
			return err
		}
		if err := row("gauge", g.Name, "max", g.Max); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		for _, f := range []struct {
			field string
			v     int64
		}{
			{"count", h.Count}, {"sum_ns", h.SumNanos},
			{"min_ns", h.MinNanos}, {"max_ns", h.MaxNanos},
		} {
			if err := row("histogram", h.Name, f.field, f.v); err != nil {
				return err
			}
		}
		for _, b := range h.Buckets {
			field := "le_inf"
			if b.LeNanos >= 0 {
				field = "le_" + strconv.FormatInt(b.LeNanos, 10) + "ns"
			}
			if err := row("histogram", h.Name, field, b.Count); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. Names are sanitized and prefixed "repro_"; histogram buckets
// are cumulative with le labels in seconds, per the format's convention.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, c := range s.Counters {
		n := promName(c.Name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, g.Value)
		fmt.Fprintf(&b, "# TYPE %s_max gauge\n%s_max %d\n", n, n, g.Max)
	}
	for _, h := range s.Histograms {
		n := promName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		cum := int64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			le := "+Inf"
			if bk.LeNanos >= 0 {
				le = strconv.FormatFloat(float64(bk.LeNanos)/1e9, 'g', -1, 64)
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum %s\n", n, strconv.FormatFloat(float64(h.SumNanos)/1e9, 'g', -1, 64))
		fmt.Fprintf(&b, "%s_count %d\n", n, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName maps a dotted instrument name onto the Prometheus metric
// name charset.
func promName(name string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return "repro_" + mapped
}
