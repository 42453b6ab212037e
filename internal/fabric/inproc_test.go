package fabric

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/journal"
	"repro/internal/worker"
)

// payloadFingerprint fingerprints a test spec whose payload alone determines
// the unit numbering: fnv64a over the kind and the payload bytes. Campaign
// specs use a plan-level fingerprint instead (see internal/campaign), which
// also covers state derived from the payload, like calibrated budgets.
func payloadFingerprint(kind string, payload []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(payload)
	return h.Sum64()
}

// inProcFactory adapts a worker.Factory into a BatchRunner that executes
// units on a pool of goroutines, one runner instance per goroutine — the
// executor-side analogue of the in-process campaign pool, used by the
// coordinator/executor tests with fakeFactory.
func inProcFactory(factory worker.Factory, workers int) BatchFactory {
	return func(spec worker.Spec) (BatchRunner, error) {
		if workers < 1 {
			workers = 1
		}
		runners := make([]worker.Runner, workers)
		for i := range runners {
			r, err := factory(spec)
			if err != nil {
				return nil, err
			}
			runners[i] = r
		}
		return &inProcBatch{runners: runners}, nil
	}
}

type inProcBatch struct {
	runners []worker.Runner
}

func (b *inProcBatch) Units() int { return b.runners[0].Units() }

func (b *inProcBatch) RunBatch(ctx context.Context, units []int, skip func(int) bool, emit func(int, journal.Outcome, []byte) error) error {
	var next int
	var mu sync.Mutex
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(units) {
			return 0, false
		}
		u := units[next]
		next++
		return u, true
	}
	errc := make(chan error, len(b.runners))
	for _, r := range b.runners {
		go func(r worker.Runner) {
			for {
				if ctx.Err() != nil {
					errc <- ctx.Err()
					return
				}
				u, ok := take()
				if !ok {
					errc <- nil
					return
				}
				if skip != nil && skip(u) {
					continue
				}
				o, payload, err := r.Run(u)
				if err != nil {
					errc <- fmt.Errorf("unit %d: %w", u, err)
					return
				}
				if err := emit(u, o, payload); err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	var first error
	for range b.runners {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}
