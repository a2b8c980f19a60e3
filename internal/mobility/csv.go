package mobility

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"locind/internal/netaddr"
)

// WriteCSV serializes the trace in the NomadLog record schema of §4, one
// row per connectivity event:
//
//	device_id,time_hours,ip_addr,prefix,asn,net_type,dur_hours
func WriteCSV(w io.Writer, dt *DeviceTrace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "device_id,time_hours,ip_addr,prefix,asn,net_type,dur_hours"); err != nil {
		return err
	}
	for i := range dt.Users {
		u := &dt.Users[i]
		for _, v := range u.Visits {
			fmt.Fprintf(bw, "%d,%.4f,%s,%s,%d,%s,%.4f\n",
				u.ID, v.Start, v.Loc.Addr, v.Loc.Prefix, v.Loc.AS, v.Loc.Net, v.Dur)
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace produced by WriteCSV. Days is inferred from the
// latest visit.
//
//lint:allow reach expt's TestExportAll (expt_test.go) reads back what locind -out wrote with WriteCSV
func ReadCSV(r io.Reader) (*DeviceTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	dt := &DeviceTrace{}
	users := map[int]*UserTrace{}
	var order []int
	first := true
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(line, "device_id,") {
				continue
			}
		}
		v, id, err := parseCSVLine(line)
		if err != nil {
			return nil, fmt.Errorf("mobility: line %d: %w", lineNo, err)
		}
		u := users[id]
		if u == nil {
			u = &UserTrace{ID: id}
			users[id] = u
			order = append(order, id)
		}
		u.Visits = append(u.Visits, v)
		if u.HomeAS == 0 && len(u.Visits) == 1 {
			u.HomeAS = v.Loc.AS
		}
		if day := v.Day() + 1; day > dt.Days {
			dt.Days = day
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, id := range order {
		dt.Users = append(dt.Users, *users[id])
	}
	return dt, nil
}

func parseCSVLine(line string) (Visit, int, error) {
	f := strings.Split(line, ",")
	if len(f) != 7 {
		return Visit{}, 0, fmt.Errorf("want 7 fields, have %d", len(f))
	}
	id, err := strconv.Atoi(f[0])
	if err != nil {
		return Visit{}, 0, fmt.Errorf("bad device_id %q", f[0])
	}
	start, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return Visit{}, 0, fmt.Errorf("bad time %q", f[1])
	}
	var v Visit
	v.Start = start
	if v.Loc.Addr, err = parseAddrField(f[2]); err != nil {
		return Visit{}, 0, err
	}
	if v.Loc.Prefix, err = parsePrefixField(f[3]); err != nil {
		return Visit{}, 0, err
	}
	asn, err := strconv.Atoi(f[4])
	if err != nil {
		return Visit{}, 0, fmt.Errorf("bad asn %q", f[4])
	}
	v.Loc.AS = asn
	switch f[5] {
	case "wifi":
		v.Loc.Net = WiFi
	case "cellular":
		v.Loc.Net = Cellular
	default:
		return Visit{}, 0, fmt.Errorf("bad net_type %q", f[5])
	}
	dur, err := strconv.ParseFloat(f[6], 64)
	if err != nil || dur <= 0 {
		return Visit{}, 0, fmt.Errorf("bad dur %q", f[6])
	}
	v.Dur = dur
	return v, id, nil
}

func parseAddrField(s string) (netaddr.Addr, error) {
	a, err := netaddr.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("bad ip_addr %q", s)
	}
	return a, nil
}

func parsePrefixField(s string) (netaddr.Prefix, error) {
	p, err := netaddr.ParsePrefix(s)
	if err != nil {
		return netaddr.Prefix{}, fmt.Errorf("bad prefix %q", s)
	}
	return p, nil
}
