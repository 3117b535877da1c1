package main

import "time"

// span is one wall-time interval around a call the driver makes into
// the program. Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spans records the driver's own spans in memory. When off, begin costs
// one branch, so the plain run measures the program and not the tracer.
type spans struct {
	on    bool
	t0    time.Time
	list  []span
	stack []int
}

// begin opens a span and returns the function that closes it.
func (s *spans) begin(name string) func() {
	if !s.on {
		return func() {}
	}
	if s.t0.IsZero() {
		s.t0 = time.Now()
	}
	parent := -1
	if len(s.stack) > 0 {
		parent = s.stack[len(s.stack)-1]
	}
	i := len(s.list)
	s.list = append(s.list, span{Name: name, Parent: parent, Start: time.Since(s.t0).Seconds()})
	s.stack = append(s.stack, i)
	return func() {
		s.list[i].End = time.Since(s.t0).Seconds()
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// totals returns the summed self time of each span name: a span's
// duration minus the part its child spans cover.
func (s *spans) totals() map[string]float64 {
	self := make([]float64, len(s.list))
	for i, sp := range s.list {
		self[i] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	out := map[string]float64{}
	for i, sp := range s.list {
		out[sp.Name] += self[i]
	}
	return out
}
