package bgp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
)

// This file gives RIBs a textual dump format so synthesized collector
// tables can be saved, diffed, and reloaded the way the paper works with
// RouteViews dumps. One line per candidate route:
//
//	prefix|next_hop|local_pref|med|rel|as_path
//
// e.g. 0.42.0.0/16|17|0|1|peer|17 204 298
//
// Lines starting with '#' are comments; the header records the collector
// metadata.

// WriteRIB serializes rib to w with an optional name in the header.
func WriteRIB(w io.Writer, name string, rib *RIB) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# locind-rib v1 name=%s prefixes=%d routes=%d\n",
		name, rib.NumPrefixes(), rib.NumRoutes())
	var line []byte // one route's line, reused
	rib.walk(func(p netaddr.Prefix, cs []cand) {
		prefix := p.String()
		for _, c := range cs {
			rt := rib.route(p, c)
			line = append(line[:0], prefix...)
			for _, v := range [...]int{rt.NextHop, rt.LocalPref, rt.MED} {
				line = strconv.AppendInt(append(line, '|'), int64(v), 10)
			}
			line = append(append(append(line, '|'), rt.Rel.String()...), '|')
			for i, as := range rt.ASPath {
				if i > 0 {
					line = append(line, ' ')
				}
				line = strconv.AppendInt(line, int64(as), 10)
			}
			bw.Write(append(line, '\n'))
		}
	})
	return bw.Flush()
}

// ReadRIB parses a dump produced by WriteRIB, then builds its RIB with
// NewRIB, so the lines of one prefix may be anywhere in the dump. It
// tolerates comments and blank lines and validates every field.
func ReadRIB(r io.Reader) (*RIB, error) {
	var routes []Route
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rt, err := parseRouteLine(line)
		if err != nil {
			return nil, fmt.Errorf("bgp: line %d: %w", lineNo, err)
		}
		routes = append(routes, rt)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bgp: reading dump: %w", err)
	}
	return NewRIB(routes), nil
}

func parseRouteLine(line string) (Route, error) {
	fields := strings.Split(line, "|")
	if len(fields) != 6 {
		return Route{}, fmt.Errorf("want 6 fields, have %d", len(fields))
	}
	prefix, err := netaddr.ParsePrefix(fields[0])
	if err != nil {
		return Route{}, err
	}
	nextHop, err := strconv.Atoi(fields[1])
	if err != nil {
		return Route{}, fmt.Errorf("bad next_hop %q", fields[1])
	}
	localPref, err := strconv.Atoi(fields[2])
	if err != nil {
		return Route{}, fmt.Errorf("bad local_pref %q", fields[2])
	}
	med, err := strconv.Atoi(fields[3])
	if err != nil {
		return Route{}, fmt.Errorf("bad med %q", fields[3])
	}
	rel, err := parseRel(fields[4])
	if err != nil {
		return Route{}, err
	}
	var path []int
	for _, tok := range strings.Fields(fields[5]) {
		as, err := strconv.Atoi(tok)
		if err != nil {
			return Route{}, fmt.Errorf("bad AS %q in path", tok)
		}
		path = append(path, as)
	}
	if len(path) == 0 {
		return Route{}, fmt.Errorf("empty AS path")
	}
	return Route{
		Prefix:    prefix,
		NextHop:   nextHop,
		LocalPref: localPref,
		MED:       med,
		Rel:       rel,
		ASPath:    path,
	}, nil
}

func parseRel(s string) (asgraph.Rel, error) {
	switch s {
	case "customer":
		return asgraph.RelCustomer, nil
	case "peer":
		return asgraph.RelPeer, nil
	case "provider":
		return asgraph.RelProvider, nil
	}
	return 0, fmt.Errorf("bad relationship %q", s)
}
