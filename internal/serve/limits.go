package serve

import (
	"fmt"
	"net/http"

	"refocus/internal/arch"
	"refocus/internal/nn"
)

// Default resource limits for inline NetworkSpec submissions. Registry
// networks are trusted (they shipped with the binary); an inline spec is
// arbitrary user input, and an absurd one — a million repeated layers, a
// single exa-MAC matmul — would pin a worker slot for the full request
// timeout and starve everyone else. The defaults sit an order of
// magnitude above the largest registry workload (BERT-base, ViT-B/16),
// so every legitimate spec passes untouched.
const (
	// DefaultMaxSpecLayers bounds a spec's layer instances (repeats
	// expanded), matching nn.Network.LayerCount.
	DefaultMaxSpecLayers = 512
	// DefaultMaxSpecGMACs bounds a spec's total multiply-accumulate
	// count in billions, matching nn.Network.TotalMACs / 1e9.
	DefaultMaxSpecGMACs = 2048.0
)

// SpecLimits bounds inline NetworkSpec submissions — the resource guard
// the serving tier applies to user-supplied workloads on top of the
// existing MaxBodyBytes cap. A spec past either limit is rejected with a
// structured 422 (Unprocessable Entity): the JSON was well-formed and
// valid, the workload is just too big to schedule.
type SpecLimits struct {
	// MaxLayers caps layer instances (repeats expanded). <= 0 means
	// DefaultMaxSpecLayers.
	MaxLayers int
	// MaxGMACs caps total multiply-accumulates in billions. <= 0 means
	// DefaultMaxSpecGMACs.
	MaxGMACs float64
}

// WithDefaults fills unset fields.
func (l SpecLimits) WithDefaults() SpecLimits {
	if l.MaxLayers <= 0 {
		l.MaxLayers = DefaultMaxSpecLayers
	}
	if l.MaxGMACs <= 0 {
		l.MaxGMACs = DefaultMaxSpecGMACs
	}
	return l
}

// unprocessable tags an error as a 422 — syntactically valid input the
// service refuses to schedule.
func unprocessable(err error) error {
	return &apiError{status: http.StatusUnprocessableEntity, err: err}
}

// check validates one parsed inline spec against the limits.
func (l SpecLimits) check(net nn.Network) error {
	l = l.WithDefaults()
	if layers := net.LayerCount(); layers > l.MaxLayers {
		return unprocessable(fmt.Errorf(
			"serve: inline NetworkSpec %s exceeds resource limits: %d layer instances > max %d",
			net.Name, layers, l.MaxLayers))
	}
	if gmacs := net.TotalMACs() / 1e9; gmacs > l.MaxGMACs {
		return unprocessable(fmt.Errorf(
			"serve: inline NetworkSpec %s exceeds resource limits: %.1f GMACs > max %.1f",
			net.Name, gmacs, l.MaxGMACs))
	}
	return nil
}

// RouteKey returns the canonical routing identity of one evaluate
// request: the resolved config hash, the fault-set hash when a non-zero
// fault set rides along, and the hash of every network the request
// evaluates, joined with "|". Requests that resolve to the same design
// point, fault set and workloads share a key however they were spelled —
// the same invariance sim.CacheKey gives a single (config, network)
// pair. The cluster coordinator places requests on worker shards by this
// key, so all cache keys of one request land on one shard and repeats
// land where their results already are. Validation failures come back
// with the same status tags the evaluate handler would use (400 for bad
// requests, 422 for specs past lim), letting the coordinator reject bad
// points at the edge without burning a shard round trip.
func RouteKey(req EvaluateRequest, lim SpecLimits) (string, error) {
	cfg, err := resolveRequestConfig(req)
	if err != nil {
		return "", badRequest(err)
	}
	fs, err := resolveRequestFaults(req, cfg)
	if err != nil {
		return "", badRequest(err)
	}
	nets, err := resolveRequestNetworks(req, lim)
	if err != nil {
		return "", err
	}
	key, err := arch.ConfigHash(cfg)
	if err != nil {
		return "", err
	}
	if fs != nil {
		fsHash, err := fs.Hash()
		if err != nil {
			return "", err
		}
		key += "|" + fsHash
	}
	for _, net := range nets {
		netHash, err := nn.NetworkHash(net)
		if err != nil {
			return "", err
		}
		key += "|" + netHash
	}
	return key, nil
}
