package perceptron

// HardwareModel estimates the cost of the PerSpectron datapath per §IV-E/F:
// binary inputs mean the dot product reduces to a sequential add/subtract of
// 8-bit weights — one input per cycle on a modest serial adder — so
// inference latency is ~NumFeatures cycles, far below the sampling interval,
// and entirely off the processor's critical paths.
type HardwareModel struct {
	NumFeatures int
	WeightBits  int
	ClockGHz    float64
	// SampleInstrs is the sampling granularity in committed instructions.
	SampleInstrs uint64
	// IPC is the sustained commit rate used to convert instructions to
	// wall-clock time.
	IPC float64
}

// DefaultHardwareModel is the paper's deployed configuration: 106 features,
// 8-bit weights, 2 GHz, 10K-instruction sampling.
func DefaultHardwareModel() HardwareModel {
	return HardwareModel{
		NumFeatures:  106,
		WeightBits:   8,
		ClockGHz:     2.0,
		SampleInstrs: 10_000,
		IPC:          1.7,
	}
}

// InferenceCycles returns the serial-adder latency: one add per input plus
// pipeline fill. The paper quotes "on the order of 100 cycles" for the
// 106-input perceptron.
func (h HardwareModel) InferenceCycles() int { return h.NumFeatures + 4 }

// InferenceTimeNs converts the inference latency to nanoseconds.
func (h HardwareModel) InferenceTimeNs() float64 {
	return float64(h.InferenceCycles()) / h.ClockGHz
}

// WeightStorageBits returns the weight-memory footprint (plus one bias).
func (h HardwareModel) WeightStorageBits() int {
	return (h.NumFeatures + 1) * h.WeightBits
}

// SamplingIntervalUs returns the wall-clock sampling period. At 10K
// instructions, IPC 1.7 and 2 GHz this is ~3 µs — the figure §VI-A2 uses to
// show bandwidth evasion is infeasible (20 sampling points inside the 61 µs
// an evasive Spectre needs for its atomic tasks).
func (h HardwareModel) SamplingIntervalUs() float64 {
	cycles := float64(h.SampleInstrs) / h.IPC
	return cycles / (h.ClockGHz * 1000)
}

// SamplesWithin returns how many sampling intervals fit in the given
// wall-clock window (µs) — e.g. the 61 µs atomic-task budget of Li &
// Gaudiot's evasive Spectre.
func (h HardwareModel) SamplesWithin(windowUs float64) int {
	iv := h.SamplingIntervalUs()
	if iv <= 0 {
		return 0
	}
	return int(windowUs / iv)
}

// FitsInSamplingInterval reports whether inference completes before the next
// sample arrives — the feasibility condition for an always-on detector.
func (h HardwareModel) FitsInSamplingInterval() bool {
	return h.InferenceTimeNs() < h.SamplingIntervalUs()*1000
}
