// Package vantage reimplements the paper's distributed content-mobility
// measurement (§7.1): vantage-point nodes resolve every monitored name once
// an hour, each seeing only a partial, locality-biased view of the name's
// address set, and upload each day of observations to a central controller
// as one keyed HTTP POST; the controller merges observations per (name,
// hour) into the union set Addrs(d, t) that the update-cost methodology
// consumes.
package vantage

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"locind/internal/cdn"
	"locind/internal/ingest"
	"locind/internal/netaddr"
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

// Controller is the central collection node, an http.Handler serving POST
// /report: it merges the nodes' hourly observations into per-(name, hour)
// union address sets, the paper's Addrs(d, t). An upload is keyed by its
// body's (node, day).
type Controller struct {
	ingest.Handler[Upload]

	mu         sync.Mutex
	merged     map[cdn.Name]map[int]map[netaddr.Addr]bool
	reports    int
	committed  map[string]map[int]bool // node -> its committed days
	dupCommits int
}

// NewController builds a controller with an empty union.
func NewController() *Controller {
	c := &Controller{
		merged:    map[cdn.Name]map[int]map[netaddr.Addr]bool{},
		committed: map[string]map[int]bool{},
	}
	c.Handler = ingest.Handler[Upload]{
		Path: "/report", MaxBody: maxReportBody, Span: "vantage-commit", Commit: c.Commit,
		Key: func(_ http.Header, up *Upload) []string {
			return []string{"node", up.Node, "day", strconv.Itoa(up.Day)}
		},
	}
	return c
}

// Commit validates a decoded upload whole, then folds it into the merged
// union, first commit per (node, day) wins: a node that re-posts a day
// because the 204 was lost on the wire is recognised and skipped.
func (c *Controller) Commit(_ http.Header, up *Upload) error {
	addrs, err := up.parse()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	days := c.committed[up.Node]
	if days == nil {
		days = map[int]bool{}
		c.committed[up.Node] = days
	}
	if days[up.Day] {
		c.dupCommits++
		return nil
	}
	days[up.Day] = true
	for i, rep := range up.Reports {
		name := cdn.Name(rep.Name)
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
	return nil
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
	return len(c.committed)
}

// MergedSet returns the union address set observed for a name at an hour,
// sorted ascending.
func (c *Controller) MergedSet(name cdn.Name, hour int) []netaddr.Addr {
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
