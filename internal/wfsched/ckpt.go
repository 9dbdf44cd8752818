package wfsched

// ckpt.go adds durable checkpoint/restart to the exhaustive sweep —
// the long-running piece of the carbon treasure hunt. The sweep's
// results arrive in deterministic mixed-radix index order, so its
// durable unit is simply a prefix: every `chunk` placements the
// completed prefix of outcomes is persisted (epoch = results done),
// and a resumed sweep re-evaluates nothing before that point. The
// fractions themselves are not stored — they are a pure function of
// the index — only the simulated outcomes are.

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
)

// wfPayload tags sweep snapshots inside the ckpt frame.
const wfPayload uint32 = 3

// EvaluateFractionsCheckpointed is EvaluateFractions with durable
// progress: placements are simulated in chunks of `chunk` (minimum 1;
// a non-positive value picks 64), the completed prefix is persisted
// through ck at its cadence after each chunk, and a resuming
// checkpointer restores the newest valid prefix instead of
// re-simulating it. A nil ck evaluates the whole space in one pass.
// Unlike EvaluateFractions it returns a failed simulation's error
// (ErrAttemptsExhausted) instead of panicking.
func EvaluateFractionsCheckpointed(sc Scenario, choices [][]float64, ck *ckpt.Checkpointer, chunk int) ([]FractionResult, error) {
	if ck == nil {
		total, _ := fractionSpace(choices)
		results := make([]FractionResult, total)
		if err := evaluateRange(sc, choices, results, 0, total); err != nil {
			return nil, err
		}
		return results, nil
	}
	if chunk <= 0 {
		chunk = 64
	}
	total, decode := fractionSpace(choices)
	results := make([]FractionResult, total)
	done, err := restoreSweep(ck, results)
	if err != nil {
		return nil, err
	}
	for i := 0; i < done; i++ {
		results[i].Fractions = decode(i)
	}
	for done < total {
		hi := done + chunk
		if hi > total {
			hi = total
		}
		if err := evaluateRange(sc, choices, results, done, hi); err != nil {
			return nil, err
		}
		done = hi
		// The finished sweep is not saved: the caller has the results,
		// and the snapshots only exist to shorten a re-run.
		if done < total && ck.Due(int64(done)) {
			if err := ck.Save(uint64(done), encodeSweep(total, results[:done])); err != nil {
				return nil, fmt.Errorf("wfsched: checkpoint: %w", err)
			}
		}
	}
	return results, nil
}

// encodeSweep serializes a completed prefix of sweep outcomes.
func encodeSweep(total int, prefix []FractionResult) []byte {
	var e ckpt.Enc
	e.U32(wfPayload)
	e.U64(uint64(total))
	e.U64(uint64(len(prefix)))
	for i := range prefix {
		o := &prefix[i].Outcome
		e.F64(o.Makespan)
		e.F64(o.EnergyLocalKWh)
		e.F64(o.EnergyCloudKWh)
		e.F64(o.CO2Local)
		e.F64(o.CO2Cloud)
		e.F64(o.CO2)
		e.I64(int64(o.TasksLocal))
		e.I64(int64(o.TasksCloud))
		e.F64(o.BytesTransferred)
		e.I64(int64(o.Transfers))
		e.I64(int64(o.Retries))
		e.F64(o.EnergyWastedKWh)
	}
	return e.Bytes()
}

// restoreSweep loads the newest valid prefix into results and returns
// how many entries it filled (0 when not resuming or no snapshot).
func restoreSweep(ck *ckpt.Checkpointer, results []FractionResult) (int, error) {
	epoch, payload, ok, err := ck.Load()
	if err != nil || !ok {
		return 0, err
	}
	return decodeSweep(epoch, payload, results)
}

// decodeSweep decodes the sweep snapshot saved at epoch into results
// and returns how many entries it filled. The payload is untrusted:
// a nil error means 0 <= done <= len(results), and counts no int can
// hold are an error wrapping ckpt.ErrCorrupt.
func decodeSweep(epoch uint64, payload []byte, results []FractionResult) (int, error) {
	dec := ckpt.NewDec(payload)
	if tag := dec.U32(); tag != wfPayload {
		return 0, fmt.Errorf("wfsched: snapshot has payload tag %d, want %d", tag, wfPayload)
	}
	total, done := dec.U64(), dec.U64()
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("wfsched: snapshot epoch %d: %w", epoch, err)
	}
	if total > math.MaxInt || done > math.MaxInt {
		return 0, fmt.Errorf("wfsched: snapshot epoch %d counts %d of %d placements: %w", epoch, done, total, ckpt.ErrCorrupt)
	}
	if int(total) != len(results) || done > total {
		return 0, fmt.Errorf("wfsched: snapshot covers %d of %d placements but the sweep has %d (resume needs the same choice lists)",
			done, total, len(results))
	}
	if done != epoch {
		return 0, fmt.Errorf("wfsched: snapshot epoch %d holds %d results", epoch, done)
	}
	for i := range results[:done] {
		o := &results[i].Outcome
		o.Makespan = dec.F64()
		o.EnergyLocalKWh = dec.F64()
		o.EnergyCloudKWh = dec.F64()
		o.CO2Local = dec.F64()
		o.CO2Cloud = dec.F64()
		o.CO2 = dec.F64()
		o.TasksLocal = int(dec.I64())
		o.TasksCloud = int(dec.I64())
		o.BytesTransferred = dec.F64()
		o.Transfers = int(dec.I64())
		o.Retries = int(dec.I64())
		o.EnergyWastedKWh = dec.F64()
	}
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("wfsched: snapshot epoch %d: %w", epoch, err)
	}
	return int(done), nil
}
