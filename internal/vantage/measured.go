package vantage

import (
	"fmt"

	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// MeasuredTimeline reconstructs a cdn.Timeline for one site from the
// controller's merged observations, exactly as the paper's central
// controller turns per-vantage resolutions into the Addrs(d, t) history:
// the hour-h set is the union of all reports for (site, h), and a mobility
// event is any hour whose union differs from the previous hour's.
func (c *Controller) MeasuredTimeline(site cdn.Site, hours int) (cdn.Timeline, error) {
	if hours <= 0 {
		return cdn.Timeline{}, fmt.Errorf("vantage: need positive hours, have %d", hours)
	}
	tl := cdn.FromSets(site, hours, func(h int) []netaddr.Addr { return c.MergedSet(site.Name, h) })
	if len(tl.Initial) == 0 {
		return cdn.Timeline{}, fmt.Errorf("vantage: no hour-0 observations for %q", site.Name)
	}
	return tl, nil
}

// MeasuredTimelines reconstructs timelines for every given site.
func (c *Controller) MeasuredTimelines(sites []cdn.Site, hours int) ([]cdn.Timeline, error) {
	out := make([]cdn.Timeline, 0, len(sites))
	for _, s := range sites {
		tl, err := c.MeasuredTimeline(s, hours)
		if err != nil {
			return nil, err
		}
		out = append(out, tl)
	}
	return out, nil
}
