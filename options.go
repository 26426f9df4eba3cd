package hear

import (
	"fmt"

	"hear/internal/prf"
)

// OptionError reports an Options field that fails validation at context
// creation. Init and InitOverComm return it (wrapped) so callers can
// distinguish a configuration mistake from a runtime failure and name the
// offending field in their own diagnostics.
type OptionError struct {
	Field string // Options field name, e.g. "Workers"
	Value any    // the rejected value
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("hear: invalid Options.%s: %v", e.Field, e.Value)
}

// validate rejects option values that would otherwise be silently
// misinterpreted deeper in the stack: a negative worker count reads as
// "serial" to the pool, a negative retry bound as "no retries", a
// negative timeout as "no deadline" — all plausible-looking configs that
// mask a sign bug at the call site. Zero stays the documented default for
// every field. The insecure xorshift PRF is refused outright: it exists
// for the Figure 5 lower bound, which hearbench builds through
// keys.Config, never for a context a caller could mistake for an
// encrypted one.
func (o *Options) validate() error {
	if o.PipelineBlockBytes < 0 {
		return &OptionError{Field: "PipelineBlockBytes", Value: o.PipelineBlockBytes}
	}
	if o.Workers < 0 {
		return &OptionError{Field: "Workers", Value: o.Workers}
	}
	if o.VerifiedRetry < 0 {
		return &OptionError{Field: "VerifiedRetry", Value: o.VerifiedRetry}
	}
	if o.RecvTimeout < 0 {
		return &OptionError{Field: "RecvTimeout", Value: o.RecvTimeout}
	}
	if o.PRFBackend == prf.BackendXorshift {
		return &OptionError{Field: "PRFBackend", Value: o.PRFBackend}
	}
	return nil
}
