package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

var clockBase = time.Now()

// monoNanos is the benchmark's clock: monotonic nanoseconds since start.
func monoNanos() int64 { return int64(time.Since(clockBase)) }

// layer names one span kind; the ladder registers one per layer call,
// one per stage and one per table.
type layer int

// span is one recorded interval. Parent is the enclosing span's layer
// (-1 for a root); ID is the packet id of the frame (or the first frame
// of the batch) the span belongs to; N is how many frames it covered.
type span struct {
	ID     uint64
	Layer  layer
	Parent layer
	Start  int64
	End    int64
	N      int32
}

// open is a span on the stack whose children are still running.
type open struct {
	layer    layer
	start    int64
	children int64 // summed child durations
	nchild   int64
}

// spanLog keeps spans in memory — the run's first spans as raw records
// for the trace file, and running self-time totals per layer over all of
// them — and writes them out when the run ends. Later spans feed only the
// totals, so recording stops polluting the caches the measured layers
// use. A layer's self time is its spans' durations minus the part their
// direct children cover, less the calibrated cost of the clock reads the
// spans themselves add.
type spanLog struct {
	names []string
	index map[string]layer
	self  []int64
	kept  []span
	stack []open
	id    uint64
	n     int32

	// inSpan is the clock cost a span adds to its own duration; perChild
	// is what each child span's clock reads add to its parent beyond the
	// child's own duration. Both are measured by calibrate.
	inSpan, perChild int64
}

func newSpanLog(keep int) *spanLog {
	return &spanLog{index: map[string]layer{}, kept: make([]span, 0, keep)}
}

// layerOf registers (or finds) a layer by name.
func (sl *spanLog) layerOf(name string) layer {
	if l, ok := sl.index[name]; ok {
		return l
	}
	l := layer(len(sl.names))
	sl.names = append(sl.names, name)
	sl.index[name] = l
	sl.self = append(sl.self, 0)
	return l
}

// frame sets the packet id and frame count the following spans carry.
func (sl *spanLog) frame(id uint64, n int) { sl.id, sl.n = id, int32(n) }

// begin opens a span of layer l.
func (sl *spanLog) begin(l layer) {
	sl.stack = append(sl.stack, open{layer: l, start: monoNanos()})
}

// end closes the innermost open span.
func (sl *spanLog) end() {
	now := monoNanos()
	o := sl.stack[len(sl.stack)-1]
	sl.stack = sl.stack[:len(sl.stack)-1]
	dur := now - o.start
	self := dur - o.children - sl.inSpan - o.nchild*sl.perChild
	sl.self[o.layer] += self
	parent := layer(-1)
	if len(sl.stack) > 0 {
		p := &sl.stack[len(sl.stack)-1]
		p.children += dur
		p.nchild++
		parent = p.layer
	}
	sl.record(span{ID: sl.id, Layer: o.layer, Parent: parent, Start: o.start, End: now, N: sl.n})
}

// add records a span measured elsewhere (the switch-reported load time
// inside an apply round trip); it feeds the trace file, not self times.
func (sl *spanLog) add(id uint64, name, parent string, start, end int64) {
	sl.record(span{ID: id, Layer: sl.layerOf(name), Parent: sl.layerOf(parent), Start: start, End: end, N: 1})
}

func (sl *spanLog) record(s span) {
	if len(sl.kept) < cap(sl.kept) {
		sl.kept = append(sl.kept, s)
	}
}

// selfNanos is layer name's accumulated self time (0 if never seen).
func (sl *spanLog) selfNanos(name string) int64 {
	if l, ok := sl.index[name]; ok {
		return sl.self[l]
	}
	return 0
}

// reset clears totals and kept spans but keeps layers and calibration.
func (sl *spanLog) reset() {
	clear(sl.self)
	sl.kept = sl.kept[:0]
	sl.stack = sl.stack[:0]
}

// calibrate measures the clock cost spans add: an empty span's recorded
// duration (inSpan) and the extra wall time a child costs its parent
// beyond its own recorded duration (perChild). Medians of several rounds
// keep one preempted round from skewing them.
func (sl *spanLog) calibrate() {
	const n = 20000
	probe := sl.layerOf("calibrate")
	var in, per []float64
	for r := 0; r < 7; r++ {
		sl.inSpan, sl.perChild = 0, 0
		sl.begin(probe)
		for i := 0; i < n; i++ {
			sl.begin(probe)
			sl.end()
		}
		top := sl.stack[len(sl.stack)-1]
		wall := float64(monoNanos() - top.start)
		sl.end()
		in = append(in, float64(top.children)/n)
		per = append(per, (wall-float64(top.children))/n)
	}
	sl.inSpan = int64(median(in))
	sl.perChild = int64(median(per))
	sl.reset()
}

// write dumps the kept spans, oldest first, as JSON lines.
func (sl *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sl.kept {
		parent := ""
		if s.Parent >= 0 {
			parent = sl.names[s.Parent]
		}
		if err := enc.Encode(struct {
			ID     uint64 `json:"id"`
			Layer  string `json:"layer"`
			Parent string `json:"parent,omitempty"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			N      int32  `json:"frames"`
		}{s.ID, sl.names[s.Layer], parent, s.Start, s.End, s.N}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
