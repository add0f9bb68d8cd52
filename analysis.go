package arpanet

import (
	"sync"

	"repro/internal/equilibrium"
)

// Analysis is the §5 equilibrium model of SPF behaviour for a topology and
// traffic matrix: the Network Response Map of the "average link", the
// per-metric cost maps, the fixed-point equilibrium of reported cost and
// traffic, and the cobweb dynamic iteration. It powers Figures 7-12.
type Analysis struct {
	mo *equilibrium.Model
}

// ShedStat is one Figure 7 row: the reported cost (hops) needed to shed
// routes of a given length.
type ShedStat = equilibrium.ShedStat

// CobwebPoint is one period of the dynamic-behaviour iteration.
type CobwebPoint = equilibrium.CobwebPoint

// AnalysisOption configures NewAnalysis.
type AnalysisOption func(*analysisConfig)

type analysisConfig struct {
	workers int
}

// AnalysisWorkers bounds the worker pool the model build fans its per-link
// hop-distance searches over. The default is GOMAXPROCS; 1 forces a
// sequential build. The result is identical for any worker count.
func AnalysisWorkers(n int) AnalysisOption {
	if n < 1 {
		panic("arpanet: analysis workers must be at least 1")
	}
	return func(c *analysisConfig) { c.workers = n }
}

// NewAnalysis builds the model: per link, one breadth-first hop search
// without the link from each source that can route over it, fanned out
// over a bounded worker pool (see AnalysisWorkers).
func NewAnalysis(t *Topology, tr *Traffic, opts ...AnalysisOption) *Analysis {
	if tr.t != t {
		panic("arpanet: Traffic was built for a different Topology")
	}
	var cfg analysisConfig
	for _, o := range opts {
		o(&cfg)
	}
	var eopts []equilibrium.Option
	if cfg.workers > 0 {
		eopts = append(eopts, equilibrium.WithWorkers(cfg.workers))
	}
	return &Analysis{mo: equilibrium.New(t.g, tr.m, eopts...)}
}

// Response returns the Network Response Map (Figure 8): the fraction of
// its ambient-cost traffic the average link keeps when it reports a cost
// of w hops.
func (a *Analysis) Response(w float64) float64 { return a.mo.Response(w) }

// ResponseSeries samples the response map over [1, wMax] for plotting.
func (a *Analysis) ResponseSeries(wMax, step float64) *Series {
	return a.mo.ResponseSeries(wMax, step)
}

// ShedCosts returns the Figure 7 statistics: per route length, the
// reported cost needed to shed those routes (mean, standard deviation,
// min, max).
func (a *Analysis) ShedCosts() []ShedStat { return a.mo.ShedCosts() }

// ResponseSpread returns the mean, standard deviation and extremes of the
// *per-link* responses at cost w — §5.2's caveat that "the characteristics
// of individual links differ from the 'average' link", quantified. The
// returns are (mean, stddev, min, max) over links carrying traffic.
func (a *Analysis) ResponseSpread(w float64) (mean, sd, min, max float64) {
	s := a.mo.ResponseSpread(w)
	return s.Mean(), s.StdDev(), s.Min(), s.Max()
}

// MeanShedCost returns the average cost needed to shed a route ("four
// hops" for the paper's topology).
func (a *Analysis) MeanShedCost() float64 { return a.mo.MeanShedCost() }

// MaxShedCost returns the cost beyond which the average link sheds
// everything ("eight hops").
func (a *Analysis) MaxShedCost() float64 { return a.mo.MaxShedCost() }

// MetricCurve returns the normalized cost (in hops) a metric assigns to a
// link of the given kind at a utilization — the Figure 4/5 curves. The
// propagation delay affects HN-SPF's floor (satellites) and D-SPF's bias.
func MetricCurve(m Metric, kind LineKind, propDelaySeconds, utilization float64) float64 {
	return metricMap(m, kind, propDelaySeconds)(utilization)
}

// metricMapCache memoizes the maps: they are stateless closures, and
// building one allocates the HNM's delay→utilization table.
var metricMapCache sync.Map // mapKey → equilibrium.MetricMap

type mapKey struct {
	m    Metric
	kind LineKind
	prop float64
}

func metricMap(m Metric, kind LineKind, prop float64) equilibrium.MetricMap {
	key := mapKey{m, kind, prop}
	if v, ok := metricMapCache.Load(key); ok {
		return v.(equilibrium.MetricMap)
	}
	var mm equilibrium.MetricMap
	switch m {
	case HNSPF:
		mm = equilibrium.HNSPFMap(kind.lt(), prop)
	case DSPF:
		mm = equilibrium.DSPFMap(kind.lt(), prop)
	case MinHop:
		mm = equilibrium.MinHopMap()
	case BF1969:
		panic("arpanet: BF1969 is a routing algorithm, not an SPF metric; Analysis does not apply")
	default:
		panic("arpanet: unknown metric")
	}
	metricMapCache.Store(key, mm)
	return mm
}

// Equilibrium solves the §5.3 fixed point for the average link under a
// metric: offered is the utilization the link would see under min-hop
// routing; the returns are the equilibrium reported cost (hops) and link
// utilization. Figure 9's intersections and Figure 10's curves come from
// sweeping this.
func (a *Analysis) Equilibrium(m Metric, kind LineKind, offered float64) (cost, utilization float64) {
	return a.mo.Equilibrium(metricMap(m, kind, 0), offered)
}

// EquilibriumSweep returns equilibrium utilization versus offered load —
// one Figure 10 curve.
func (a *Analysis) EquilibriumSweep(m Metric, kind LineKind, maxOffered, step float64) *Series {
	return a.mo.EquilibriumSweep(m.String(), metricMap(m, kind, 0), maxOffered, step)
}

// Cobweb traces the dynamic behaviour of Figures 11 and 12: starting from
// reported cost w0 (hops), iterate cost → traffic → utilization → next
// cost for the given number of 10-second periods. For HN-SPF the HNM's
// averaging filter and movement limits apply; D-SPF and min-hop iterate
// raw.
func (a *Analysis) Cobweb(m Metric, kind LineKind, offered, w0 float64, steps int) []CobwebPoint {
	opt := equilibrium.CobwebOptions{}
	if m == HNSPF {
		p := NewLinkMetric(kind, 0)
		hop := p.Floor()
		opt = equilibrium.CobwebOptions{
			Averaging: true,
			LimitUp:   (hop/2 + 1) / hop,
			LimitDown: (hop / 2) / hop,
		}
	}
	return a.mo.Cobweb(metricMap(m, kind, 0), offered, w0, steps, opt)
}

// CobwebAmplitude returns the peak-to-peak cost swing over the second half
// of a cobweb trace — the post-transient oscillation amplitude.
func CobwebAmplitude(trace []CobwebPoint) float64 { return equilibrium.Amplitude(trace) }
