package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): a # TYPE line per family, cumulative histogram
// buckets with an explicit +Inf edge, and _sum/_count series. Rendering
// only ever reads the snapshot, so a scrape can never observe a torn
// counter set — consistency was decided when the snapshot was taken.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	for _, c := range s.Counters {
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", c.Name, c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", g.Name, g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(bw, "# TYPE %s histogram\n", h.Name)
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", h.Name, formatBound(bound), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, cum)
		fmt.Fprintf(bw, "%s_sum %s\n", h.Name, strconv.FormatFloat(h.Sum, 'g', -1, 64))
		fmt.Fprintf(bw, "%s_count %d\n", h.Name, h.Count)
	}
	return bw.Flush()
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// PromFamily is one metric family recovered by ParsePrometheus.
type PromFamily struct {
	// Name is the family name from its # TYPE line.
	Name string
	// Type is "counter", "gauge" or "histogram".
	Type string
	// Samples maps each full series name (including any {le=...} suffix)
	// to its value.
	Samples map[string]float64
}

// ParsePrometheus parses and lints the text exposition format produced by
// WritePrometheus. It is the checker CI runs over live daemon scrapes, so
// it errors on everything a real scraper would reject: samples with no
// preceding # TYPE, invalid names, unparsable values, histograms whose
// cumulative buckets decrease, miss the +Inf edge, or disagree with their
// _count series.
func ParsePrometheus(r io.Reader) (map[string]PromFamily, error) {
	families := make(map[string]PromFamily)
	var cur string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) == 4 && fields[1] == "TYPE" {
				name, typ := fields[2], fields[3]
				if !validName(name) {
					return nil, fmt.Errorf("line %d: invalid family name %q", line, name)
				}
				switch typ {
				case "counter", "gauge", "histogram":
				default:
					return nil, fmt.Errorf("line %d: unknown family type %q", line, typ)
				}
				if _, dup := families[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate # TYPE for %q", line, name)
				}
				families[name] = PromFamily{Name: name, Type: typ, Samples: map[string]float64{}}
				cur = name
			}
			continue // other comments are legal and ignored
		}
		sp := strings.LastIndexByte(text, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("line %d: sample %q has no value", line, text)
		}
		series, valText := text[:sp], text[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad sample value %q", line, valText)
		}
		base := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("line %d: unterminated label set in %q", line, series)
			}
			base = series[:i]
		}
		fam := base
		if cur != "" && families[cur].Type == "histogram" {
			if t := strings.TrimSuffix(base, "_bucket"); t != base {
				fam = t
			} else if t := strings.TrimSuffix(base, "_sum"); t != base {
				fam = t
			} else if t := strings.TrimSuffix(base, "_count"); t != base {
				fam = t
			}
		}
		f, ok := families[fam]
		if !ok || fam != cur {
			return nil, fmt.Errorf("line %d: sample %q outside its # TYPE block", line, series)
		}
		if _, dup := f.Samples[series]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %q", line, series)
		}
		f.Samples[series] = val
		families[fam] = f
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, f := range families {
		if f.Type != "histogram" {
			continue
		}
		if err := lintHistogram(name, f); err != nil {
			return nil, err
		}
	}
	return families, nil
}

// lintHistogram enforces the histogram-shape invariants a scraper relies
// on: at least one bucket, a +Inf edge, distinct numeric bounds,
// non-decreasing cumulative counts in bound order, and _count equal to the
// +Inf bucket. Two spellings of one bound (le="0" and le="+0.") are
// refused: their order, and so the verdict, would depend on map order.
func lintHistogram(name string, f PromFamily) error {
	type edge struct {
		bound float64
		count float64
	}
	var edges []edge
	var inf *float64
	for series, val := range f.Samples {
		rest, ok := strings.CutPrefix(series, name+"_bucket{le=\"")
		if !ok {
			continue
		}
		le := strings.TrimSuffix(rest, "\"}")
		if le == "+Inf" {
			v := val
			inf = &v
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil || math.IsNaN(b) {
			return fmt.Errorf("histogram %s: bad le bound %q", name, le)
		}
		edges = append(edges, edge{b, val})
	}
	if inf == nil {
		return fmt.Errorf("histogram %s: no +Inf bucket", name)
	}
	if len(edges) == 0 {
		return fmt.Errorf("histogram %s: no finite buckets", name)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].bound < edges[j].bound })
	prev := 0.0
	for i, e := range edges {
		if i > 0 && e.bound == edges[i-1].bound {
			return fmt.Errorf("histogram %s: two buckets bounded at le=%g", name, e.bound)
		}
		if e.count < prev {
			return fmt.Errorf("histogram %s: cumulative bucket count decreases at le=%g", name, e.bound)
		}
		prev = e.count
	}
	if *inf < prev {
		return fmt.Errorf("histogram %s: +Inf bucket %g below le=%g bucket %g", name, *inf, edges[len(edges)-1].bound, prev)
	}
	count, ok := f.Samples[name+"_count"]
	if !ok {
		return fmt.Errorf("histogram %s: missing _count series", name)
	}
	if count != *inf {
		return fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", name, count, *inf)
	}
	if _, ok := f.Samples[name+"_sum"]; !ok {
		return fmt.Errorf("histogram %s: missing _sum series", name)
	}
	return nil
}
