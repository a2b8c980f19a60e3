// Package vantage reimplements the paper's distributed content-mobility
// measurement (§7.1): vantage-point nodes resolve every monitored name once
// an hour, each seeing only a partial, locality-biased view of the name's
// address set, and upload each day of observations to a central controller
// as one keyed HTTP POST; the controller merges observations per (name,
// hour) into the union set Addrs(d, t) that the update-cost methodology
// consumes.
package vantage

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"locind/internal/names"
	"locind/internal/netaddr"
	"locind/internal/obs"
)

// Upload is the body of POST /report: one node's observations of one day,
// hours 24*Day through 24*Day+23.
type Upload struct {
	Node    string   `json:"node"`
	Day     int      `json:"day"`
	Reports []Report `json:"reports"`
}

// Report is one (name, hour) observation: the addresses the node's resolver
// answered with.
type Report struct {
	Hour  int      `json:"hour"`
	Name  string   `json:"name"`
	Addrs []string `json:"addrs"`
}

// maxReportBody bounds an upload body: 12x the largest day vantaged posts,
// 22.3 MB per node at -domains 500 (13 229 names). A body declaring more is
// refused before it is read, one running past it as soon as it does.
const maxReportBody = 256 << 20

// dayKey names one committed upload.
type dayKey struct {
	node string
	day  int
}

// Controller is the central collection node, an http.Handler serving POST
// /report: it merges the nodes' hourly observations into per-(name, hour)
// union address sets, the paper's Addrs(d, t).
//
// An upload is validated whole before anything changes: a body that does
// not decode, names no node, holds an hour outside its day or an address
// that does not parse is a 400 and commits nothing — so a body cut off on
// the wire never reaches the union. An accepted body is a 204 and commits
// first-wins per (node, day): a node that re-posts a day because the 204 was
// lost on the wire is recognised and skipped.
type Controller struct {
	// Tracer, when non-nil, records one commit span per decoded upload,
	// parented onto the node's span named in the obs.TraceHeader. Set it
	// before serving.
	Tracer *obs.Tracer

	mu         sync.Mutex
	merged     map[names.Name]map[int]map[netaddr.Addr]bool
	reports    int
	nodes      map[string]bool
	committed  map[dayKey]bool
	dupCommits int
	refused    int
	firstErr   error
}

// NewController builds a controller with an empty union.
func NewController() *Controller {
	return &Controller{
		merged:    map[names.Name]map[int]map[netaddr.Addr]bool{},
		nodes:     map[string]bool{},
		committed: map[dayKey]bool{},
	}
}

// ServeHTTP implements http.Handler.
func (c *Controller) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/report" {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.ContentLength > maxReportBody {
		c.refuse(w, fmt.Errorf("vantage: upload of %d bytes exceeds %d", r.ContentLength, maxReportBody))
		return
	}
	var up Upload
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReportBody))
	if err == nil {
		err = json.Unmarshal(body, &up)
	}
	if err != nil {
		c.refuse(w, fmt.Errorf("vantage: bad upload: %w", err))
		return
	}
	tc, _ := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader))
	span := c.Tracer.StartRemote(tc, "vantage-commit", "node", up.Node, "day", strconv.Itoa(up.Day))
	defer span.End()
	addrs, err := up.parse()
	if err != nil {
		c.refuse(w, err)
		return
	}
	c.commit(&up, addrs)
	w.WriteHeader(http.StatusNoContent)
}

// parse validates an upload and returns each report's addresses.
func (up *Upload) parse() ([][]netaddr.Addr, error) {
	if up.Node == "" || up.Day < 0 {
		return nil, fmt.Errorf("vantage: upload names no node or a negative day")
	}
	out := make([][]netaddr.Addr, len(up.Reports))
	for i, rep := range up.Reports {
		if rep.Hour < 0 || rep.Hour/24 != up.Day {
			return nil, fmt.Errorf("vantage: %s day %d holds hour %d", up.Node, up.Day, rep.Hour)
		}
		out[i] = make([]netaddr.Addr, len(rep.Addrs))
		for j, s := range rep.Addrs {
			a, err := netaddr.ParseAddr(s)
			if err != nil {
				return nil, fmt.Errorf("vantage: %s day %d: %w", up.Node, up.Day, err)
			}
			out[i][j] = a
		}
	}
	return out, nil
}

// refuse answers 400 and records the refusal: a count, and the first error
// for the operator.
func (c *Controller) refuse(w http.ResponseWriter, err error) {
	c.mu.Lock()
	c.refused++
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// commit folds one validated upload into the merged union, first commit per
// (node, day) wins.
func (c *Controller) commit(up *Upload, addrs [][]netaddr.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[up.Node] = true
	key := dayKey{up.Node, up.Day}
	if c.committed[key] {
		c.dupCommits++
		return
	}
	c.committed[key] = true
	for i, rep := range up.Reports {
		name := names.Name(rep.Name)
		byHour := c.merged[name]
		if byHour == nil {
			byHour = map[int]map[netaddr.Addr]bool{}
			c.merged[name] = byHour
		}
		set := byHour[rep.Hour]
		if set == nil {
			set = map[netaddr.Addr]bool{}
			byHour[rep.Hour] = set
		}
		for _, a := range addrs[i] {
			set[a] = true
		}
	}
	c.reports += len(up.Reports)
}

// Refused returns how many upload bodies were answered 400, and the first
// such body's error.
func (c *Controller) Refused() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refused, c.firstErr
}

// ReportCount returns how many reports have been committed into the union.
// A refused or duplicate upload's reports are never counted.
func (c *Controller) ReportCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reports
}

// NodeCount returns how many distinct vantage points have had an upload
// accepted.
func (c *Controller) NodeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// MergedSet returns the union address set observed for a name at an hour,
// sorted ascending.
func (c *Controller) MergedSet(name names.Name, hour int) []netaddr.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.merged[name][hour]
	out := make([]netaddr.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
