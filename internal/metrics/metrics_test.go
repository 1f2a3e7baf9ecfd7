package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	h.AddAll([]int{2, 2, 2, 5, 8})
	if h.n != 5 {
		t.Errorf("n = %d", h.n)
	}
	if got := h.Mean(); math.Abs(got-3.8) > 1e-12 {
		t.Errorf("Mean = %v, want 3.8", got)
	}
	if h.counts[2] != 3 || h.counts[5] != 1 || h.counts[3] != 0 {
		t.Error("counts wrong")
	}
	if got := h.Fraction(2); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Fraction(2) = %v", got)
	}
	if got := h.FractionAtMost(5); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("FractionAtMost(5) = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Fraction(1) != 0 || h.FractionAtMost(1) != 0 {
		t.Error("empty histogram should return zeros")
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram()
	h.AddAll([]int{2, 2, 5, 8, 40})
	s := h.Render("cnot latency", 10, 20)
	if !strings.Contains(s, "n=5") {
		t.Errorf("render missing count: %s", s)
	}
	if !strings.Contains(s, ">") {
		t.Errorf("render missing overflow bucket: %s", s)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v", g)
	}
	if g := GeoMean([]float64{2, 2, 2}); math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean(2,2,2) = %v", g)
	}
}

func TestGeoMeanPanics(t *testing.T) {
	for _, vs := range [][]float64{nil, {0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GeoMean(%v) should panic", vs)
				}
			}()
			GeoMean(vs)
		}()
	}
}

// Property: geomean lies between min and max and is scale-equivariant.
func TestGeoMeanProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		lo, hi := math.Inf(1), 0.0
		for i, r := range raw {
			vs[i] = 1 + float64(r)
			if vs[i] < lo {
				lo = vs[i]
			}
			if vs[i] > hi {
				hi = vs[i]
			}
		}
		g := GeoMean(vs)
		if g < lo-1e-9 || g > hi+1e-9 {
			return false
		}
		halved := make([]float64, len(vs))
		for i, v := range vs {
			halved[i] = v / 2
		}
		scaled := GeoMean(halved)
		return math.Abs(scaled-g/2) < 1e-9*g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("bench", "cycles", "speedup")
	tb.Row("vqe_n13", 153, 2.23)
	tb.Row("gcm_n13", 2474, 1.8)
	s := tb.String()
	if !strings.Contains(s, "vqe_n13") || !strings.Contains(s, "speedup") {
		t.Errorf("table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("table should have 4 lines, got %d", len(lines))
	}
}

func TestRenderSeries(t *testing.T) {
	s := RenderSeries("Figure 11", "d", []Series{
		{Label: "greedy", X: []float64{5, 7, 9}, Y: []float64{100, 90, 80}},
		{Label: "rescq", X: []float64{5, 7, 9}, Y: []float64{50, 45, 40}},
	})
	if !strings.Contains(s, "greedy") || !strings.Contains(s, "rescq") {
		t.Errorf("series render missing labels:\n%s", s)
	}
	if !strings.Contains(s, "Figure 11") {
		t.Errorf("series render missing title:\n%s", s)
	}
}
