package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"eevfs/internal/cluster"
)

// ASCII bar charts for the figure experiments, so `eevfsbench -plot`
// produces something that reads like the paper's Figs. 3-5: grouped bars
// per sweep point, one group per x-axis value, PF and NPF side by side.

// Series is one plotted line/bar group.
type Series struct {
	Name   string
	Values []float64
}

// Chart is a grouped-bar chart over shared x labels.
type Chart struct {
	Title   string
	Unit    string
	XLabels []string
	Series  []Series
}

// Validate reports structural problems (mismatched lengths).
func (c Chart) Validate() error {
	for _, s := range c.Series {
		if len(s.Values) != len(c.XLabels) {
			return fmt.Errorf("experiments: series %q has %d values for %d labels",
				s.Name, len(s.Values), len(c.XLabels))
		}
	}
	return nil
}

// Render draws the chart with horizontal bars, one group per x label.
func (c Chart) Render(w io.Writer) error {
	if err := c.Validate(); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)

	maxVal := 0.0
	for _, s := range c.Series {
		for _, v := range s.Values {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}

	labelW, nameW := 0, 0
	for _, l := range c.XLabels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for _, s := range c.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}

	const barW = 46
	for i, label := range c.XLabels {
		for j, s := range c.Series {
			lbl := ""
			if j == 0 {
				lbl = label
			}
			n := int(s.Values[i] / maxVal * barW)
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(&b, "%-*s  %-*s |%-*s %s %s\n",
				labelW, lbl, nameW, s.Name, barW, strings.Repeat("#", n),
				strconv.FormatFloat(s.Values[i], 'g', 4, 64), c.Unit)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// chart plots a sweep as a figure panel's grouped bars.
func (m metric) chart(title string, pts []point) Chart {
	c := Chart{Title: title, Unit: m.unit}
	pf, npf := Series{Name: "PF"}, Series{Name: "NPF"}
	for _, p := range pts {
		c.XLabels = append(c.XLabels, p.label)
		pf.Values = append(pf.Values, m.value(p.pf))
		npf.Values = append(npf.Values, m.value(p.npf))
	}
	c.Series = []Series{pf, npf}
	if m.pfOnly {
		c.Series = c.Series[:1]
	}
	return c
}

// PlottableIDs lists experiments that can render as charts, in id order:
// figures lists its panels in paper order, and fig6 follows them.
func PlottableIDs() []string {
	var ids []string
	for _, f := range figures {
		if f.chart != "" {
			ids = append(ids, f.id)
		}
	}
	return append(ids, "fig6")
}

// Plot runs the experiment's simulations and returns its chart. Unknown
// or non-plottable ids error.
func Plot(id string, o Options) (Chart, error) {
	if id == "fig6" {
		tr, err := webTrace(o)
		if err != nil {
			return Chart{}, err
		}
		res, err := simulate(o, arms("web", cluster.DefaultTestbed(), tr))
		if err != nil {
			return Chart{}, err
		}
		return energy.chart("Fig. 6 energy, Berkeley-web-equivalent trace", []point{{"web", res[0], res[1]}}), nil
	}
	for _, f := range figures {
		if f.id == id && f.chart != "" {
			pts, err := f.axis.sweep(o)
			if err != nil {
				return Chart{}, err
			}
			return f.metric.chart(f.chart, pts), nil
		}
	}
	return Chart{}, fmt.Errorf("experiments: %q is not plottable", id)
}
