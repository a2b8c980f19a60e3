package expt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"locind/internal/bgp"
	"locind/internal/mobility"
	"locind/internal/stats"
)

// ExportAll writes the world's raw artifacts and the given figure series
// into dir, so external tooling (gnuplot, pandas) can replot the paper's
// figures from this reproduction:
//
//	trace.csv            the NomadLog-equivalent device trace (§4 schema)
//	rib_<collector>.txt  each RouteViews collector's candidate routes
//	fig6.csv .. fig12.csv  the series of the experiments that ran (Output.Series)
func ExportAll(w *World, dir string, series []CSV) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(dir, "trace.csv", func(f *os.File) error {
		return mobility.WriteCSV(f, w.Devices)
	}); err != nil {
		return err
	}
	for _, c := range w.RouteViews {
		c := c
		name := fmt.Sprintf("rib_%s.txt", c.Name)
		if err := writeFile(dir, name, func(f *os.File) error {
			return bgp.WriteRIB(f, c.Name, c.RIB)
		}); err != nil {
			return err
		}
	}
	for _, s := range series {
		if err := os.WriteFile(filepath.Join(dir, s.Name), []byte(s.Body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(dir, name string, fill func(*os.File) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close() //lint:allow errflow the fill error is the one worth reporting
		return fmt.Errorf("expt: writing %s: %w", name, err)
	}
	return f.Close()
}

// curves renders named series as one "series,x,y" CSV, in name order so
// two runs write the same bytes.
func curves(file string, series map[string][]stats.Point) CSV {
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, name := range names {
		for _, p := range series[name] {
			fmt.Fprintf(&b, "%s,%g,%g\n", name, p.X, p.Y)
		}
	}
	return CSV{file, b.String()}
}

// cdfs is curves over the IP, prefix and AS CDFs of Figures 6, 7 and 9.
func cdfs(file string, ip, prefix, as []stats.Point) CSV {
	return curves(file, map[string][]stats.Point{"ip": ip, "prefix": prefix, "as": as})
}

// bars renders one bar per collector of Figures 8, 11b and 11c.
func bars(file string, rows []RouterRate) CSV {
	var b strings.Builder
	b.WriteString("router,rate,nexthop_degree,sessions\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%g,%d,%d\n", r.Name, r.Rate, r.NextHopDegree, r.Sessions)
	}
	return CSV{file, b.String()}
}

// aggregateability renders Figure 12's one bar per collector.
func aggregateability(r Fig12Result) CSV {
	var b strings.Builder
	b.WriteString("router,aggregateability\n")
	for _, rr := range r.Routers {
		fmt.Fprintf(&b, "%s,%g\n", rr.Name, rr.Aggregateability)
	}
	return CSV{"fig12.csv", b.String()}
}
