package expt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/mobility"
	"locind/internal/stats"
)

// ExportAll writes the world's raw artifacts and every figure's data series
// into dir, so external tooling (gnuplot, pandas) can replot the paper's
// figures from this reproduction:
//
//	trace.csv            the NomadLog-equivalent device trace (§4 schema)
//	rib_<collector>.txt  each RouteViews collector's candidate routes
//	fig6.csv .. fig12.csv  the plotted series
func ExportAll(w *World, dir string) error {
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

	curves := func(file string, series map[string][]stats.Point) error {
		return writeFile(dir, file, func(f *os.File) error {
			if _, err := fmt.Fprintln(f, "series,x,y"); err != nil {
				return err
			}
			// Name order, not map order: two runs must write the same bytes.
			names := make([]string, 0, len(series))
			for name := range series {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				for _, p := range series[name] {
					if _, err := fmt.Fprintf(f, "%s,%g,%g\n", name, p.X, p.Y); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	bars := func(file string, rows []RouterRate) error {
		return writeFile(dir, file, func(f *os.File) error {
			if _, err := fmt.Fprintln(f, "router,rate,nexthop_degree,sessions"); err != nil {
				return err
			}
			for _, r := range rows {
				if _, err := fmt.Fprintf(f, "%s,%g,%d,%d\n", r.Name, r.Rate, r.NextHopDegree, r.Sessions); err != nil {
					return err
				}
			}
			return nil
		})
	}

	f6 := RunFig6(w)
	if err := curves("fig6.csv", map[string][]stats.Point{
		"ip": f6.IPCDF, "prefix": f6.PrefixCDF, "as": f6.ASCDF,
	}); err != nil {
		return err
	}
	f7 := RunFig7(w)
	if err := curves("fig7.csv", map[string][]stats.Point{
		"ip": f7.IPCDF, "prefix": f7.PrefixCDF, "as": f7.ASCDF,
	}); err != nil {
		return err
	}
	if err := bars("fig8.csv", RunFig8(w).Routers); err != nil {
		return err
	}
	f9 := RunFig9(w)
	if err := curves("fig9.csv", map[string][]stats.Point{
		"ip": f9.IPCDF, "prefix": f9.PrefixCDF, "as": f9.ASCDF,
	}); err != nil {
		return err
	}
	f10 := RunFig10(w)
	if err := curves("fig10.csv", map[string][]stats.Point{"latency_ms": f10.LatencyCDF}); err != nil {
		return err
	}
	if err := curves("fig11a.csv", map[string][]stats.Point{"events_per_day": RunFig11a(w).CDF}); err != nil {
		return err
	}
	b := RunFig11bc(w, cdn.Popular)
	if err := bars("fig11b_flooding.csv", b.Flooding); err != nil {
		return err
	}
	if err := bars("fig11b_bestport.csv", b.BestPort); err != nil {
		return err
	}
	c := RunFig11bc(w, cdn.Unpopular)
	if err := bars("fig11c_flooding.csv", c.Flooding); err != nil {
		return err
	}
	if err := bars("fig11c_bestport.csv", c.BestPort); err != nil {
		return err
	}
	f12 := RunFig12(w)
	if err := writeFile(dir, "fig12.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "router,aggregateability"); err != nil {
			return err
		}
		for _, r := range f12.Routers {
			if _, err := fmt.Fprintf(f, "%s,%g\n", r.Name, r.Aggregateability); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
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
