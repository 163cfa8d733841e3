package experiments

import (
	"errors"
	"fmt"
)

// registry maps experiment ids (as used by `db4ml-bench -exp`) to their
// runners, in the paper's order.
var registry = []struct {
	id  string
	fn  func(Options) error
	doc string
}{
	{"fig1", Fig1, "PageRank on Wikivote: DB4ML vs Galois vs MADlib"},
	{"tab1", Table1, "PageRank dataset catalog"},
	{"fig8", Fig8, "PageRank scalability across cores"},
	{"fig9", Fig9, "ML isolation levels: runtime and accuracy, ± straggler"},
	{"fig10a", Fig10a, "transaction overhead breakdown, batch size 1"},
	{"fig10b", Fig10b, "batch size sweep"},
	{"fig11", Fig11, "overhead of storing multiple versions"},
	{"tab2", Table2, "SGD dataset catalog"},
	{"fig12", Fig12, "SGD runtime: Hogwild! vs DB4ML vs Hogwild++"},
	{"fig13", Fig13, "SGD scalability and accuracy"},
	{"fig14", Fig14, "SGD micro-architecture: cycles and L1 misses per sample"},
	{"locality", Locality, "extra: NUMA locality by partitioning scheme"},
}

// Run executes the experiment with the given id, or every experiment when
// id is "all". An "all" run keeps going past a failing experiment so one
// broken figure does not mask the rest; the failures are aggregated into
// the returned error.
func Run(id string, opts Options) error {
	if id == "all" {
		var errs []error
		for _, e := range registry {
			if err := e.fn(opts); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", e.id, err))
			}
		}
		return errors.Join(errs...)
	}
	for _, e := range registry {
		if e.id == id {
			return e.fn(opts)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, IDs())
}

// IDs lists the known experiment ids in the paper's order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.doc
		}
	}
	return ""
}
