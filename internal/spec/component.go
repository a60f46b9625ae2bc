package spec

import "strings"

// Env is the interface a component uses to interact with the interconnect.
// The model checker and simulator provide implementations that queue
// outgoing messages on ordered (src, dst, vnet) channels.
type Env interface {
	// Send enqueues a message for delivery.
	Send(m Msg)
}

// FaultEnv is an Env whose host accepts component faults: a component that
// cannot carry out a delivery (a compiled table with no entry for it, a
// stored state image that no longer decodes) reports the error and stalls,
// and the host fails the run with it instead of crashing.
type FaultEnv interface {
	Env
	Fault(err error)
}

// Fault reports err through env when the host accepts faults, and panics
// with it otherwise.
func Fault(env Env, err error) {
	if fe, ok := env.(FaultEnv); ok {
		fe.Fault(err)
		return
	}
	panic(err)
}

// Component is a coherence controller endpoint executed by a host system
// (model checker or simulator). A component may own several NodeIDs — the
// merged directory owns its constituent directories and proxy caches.
type Component interface {
	// OwnedIDs lists the interconnect endpoints this component serves.
	OwnedIDs() []NodeID
	// Deliver hands the component a message addressed to one of its IDs.
	// It returns false to stall: the message stays at its channel head and
	// is retried after other activity.
	Deliver(env Env, m Msg) bool
	// Clone deep-copies the component (state-space search needs value
	// semantics).
	Clone() Component
	// Snapshot appends a canonical encoding of the component's state.
	Snapshot(b *SnapshotWriter)
	// StateCodec is the faithful byte form of the component's mutable
	// state: the model checker's frontier holds every queued state as
	// these bytes and decodes them back into a working copy.
	StateCodec
}

// SnapshotWriter accumulates canonical state encodings for hashing.
type SnapshotWriter struct {
	strings.Builder
}

// CollectFn receives outgoing messages during a synchronous action burst.
type CollectFn func(Msg)

// collectEnv adapts a function to Env.
type collectEnv struct{ fn CollectFn }

func (c collectEnv) Send(m Msg) { c.fn(m) }

// EnvFunc wraps a send function as an Env.
func EnvFunc(fn CollectFn) Env { return collectEnv{fn} }
