//go:build poisonrelease

package transport

// Built with -tags poisonrelease, Envelope.Release and ReleaseVector overwrite
// the whole buffer with set bits (0xFF bytes, NaN floats) before listing it.
// A buffer released while someone still reads it then hands that reader
// poison instead of its own values, which moves a golden or fails a run's
// equality with its in-process twin, whether or not the list reuses the
// buffer before the read. check.sh runs the transport, distrib and golden
// tests built this way.
const poisonReleased = true
