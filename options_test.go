package hear

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"hear/internal/keys"
	"hear/internal/mpi"
	"hear/internal/prf"
)

// TestOptionsValidation pins that every sign-sensitive Options field, and
// the insecure benchmark-only PRF backend, is rejected at context creation
// with a typed *OptionError naming the field — not silently reinterpreted
// ("negative workers means serial") deeper in the stack.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		field string
		opts  Options
	}{
		{"PipelineBlockBytes", Options{PipelineBlockBytes: -1}},
		{"Workers", Options{Workers: -1}},
		{"VerifiedRetry", Options{VerifiedRetry: -2}},
		{"RecvTimeout", Options{RecvTimeout: -time.Second}},
		{"PRFBackend", Options{PRFBackend: prf.BackendXorshift}},
	}
	w := mpi.NewWorld(2)
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			_, err := Init(w, tc.opts)
			if err == nil {
				t.Fatalf("Init accepted invalid %s", tc.field)
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not an *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Errorf("OptionError.Field = %q, want %q", oe.Field, tc.field)
			}
		})
	}
}

// TestOptionsValidationOverComm pins that InitOverComm applies the same
// validation: it is the per-communicator entry point, and skipping the
// check there would let the exact same bad config through a different
// door.
func TestOptionsValidationOverComm(t *testing.T) {
	w := mpi.NewWorld(1)
	err := w.Run(0, func(comm *mpi.Comm) error {
		_, err := InitOverComm(comm, Options{Workers: -1}, nil)
		return err
	})
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Field != "Workers" {
		t.Fatalf("InitOverComm error = %v, want *OptionError{Field: Workers}", err)
	}
}

// TestOptionsZeroValuesStillDefault pins that validation does not break
// the documented zero defaults (0 workers = GOMAXPROCS, 0 timeout =
// forever, ...).
func TestOptionsZeroValuesStillDefault(t *testing.T) {
	w := mpi.NewWorld(2)
	if _, err := Init(w, Options{}); err != nil {
		t.Fatalf("zero Options rejected: %v", err)
	}
}

// TestInitInstallsConcreteBackend pins that nothing sits between a rank's
// key state and its PRF: under every backend Options accepts, st.Enc is
// the very type prf.New returns, so prf.BlockSource always picks that
// backend's specialised refill.
func TestInitInstallsConcreteBackend(t *testing.T) {
	for _, name := range []string{prf.BackendAESFast, prf.BackendAESScalar, prf.BackendSHA1, prf.BackendChaCha20} {
		want, err := prf.New(name, make([]byte, keys.KeyBytes))
		if err != nil {
			t.Fatal(err)
		}
		_, ctxs := initWorld(t, 2, Options{PRFBackend: name})
		for _, ctx := range ctxs {
			if got := reflect.TypeOf(ctx.st.Enc); got != reflect.TypeOf(want) {
				t.Errorf("%s rank %d: st.Enc is %v, want %v", name, ctx.rank, got, reflect.TypeOf(want))
			}
		}
	}
}
