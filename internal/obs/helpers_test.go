package obs

// Tracer methods only the obs tests call.

// TraceID returns the tracer's distributed-trace id ("" on nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SetEnabled flips the recording gate (no-op on a nil tracer).
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}
