package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	hotpotato "repro"
)

// batch.go is the POST /v1/batch wire contract, shared by hotpotato-server
// and the dispatcher: both handlers admit a sweep with AdmitSweep, negotiate
// framing with WantsSSE and write the response with StreamSweep. They differ
// only in where the records come from — a local ExecuteSweepCells pool or
// the fleet's leased workers.

// WantsSSE reports whether the request negotiated Server-Sent Events; the
// default (and anything ambiguous) is NDJSON.
func WantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// AdmitSweep decodes and admits a POST /v1/batch body: the document must
// decode and Validate, and its cross-product must not exceed maxCells. An
// admitted sweep comes back as its expanded cells. A rejected sweep comes
// back as the HTTP status and error to answer with (400 or 413); no cell has
// been expanded for it.
func AdmitSweep(body io.Reader, maxCells int) ([]hotpotato.SweepCell, int, error) {
	var sweep hotpotato.SweepSpec
	if err := json.NewDecoder(body).Decode(&sweep); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("decoding SweepSpec: %w", err)
	}
	if err := sweep.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if n := sweep.CellCount(); n > maxCells {
		count := fmt.Sprint(n)
		if n > hotpotato.MaxSweepCells { // CellCount saturated: n is a floor
			count = fmt.Sprintf("more than %d", hotpotato.MaxSweepCells)
		}
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("sweep expands to %s cells, admission limit is %d", count, maxCells)
	}
	cells, err := sweep.Expand()
	if err != nil {
		// Unreachable after the admission check, but fail closed.
		return nil, http.StatusRequestEntityTooLarge, err
	}
	return cells, 0, nil
}

// StreamSweep writes one /v1/batch response from the calling goroutine: the
// header, then every record from records as it arrives, with a "progress"
// record every heartbeat (positive: both servers' configs default it), then
// — once records closes — the terminal summary, counted with
// SweepSummary.Observe and returned.
// Being the only sender is what makes "the summary is the last record" hold
// by construction; RecordStream's terminal seal is the second line of
// defense. The producer must close records once every cell is accounted
// for, including when the sweep is canceled.
func StreamSweep(stream *RecordStream, header hotpotato.SweepStarted, records <-chan hotpotato.SweepResultRecord, heartbeat time.Duration) hotpotato.SweepSummary {
	began := time.Now()
	elapsedMS := func() float64 { return float64(time.Since(began).Nanoseconds()) / 1e6 }
	stream.Send("sweep", header)

	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	summary := hotpotato.SweepSummary{Type: "summary", Total: header.Total}
	done := 0
	for {
		select {
		case rec, ok := <-records:
			if !ok {
				summary.ElapsedMS = elapsedMS()
				stream.Send("summary", summary)
				return summary
			}
			summary.Observe(rec)
			done++
			stream.Send("result", rec)
		case <-tick.C:
			stream.Send("progress", hotpotato.SweepProgress{
				Type: "progress", Done: done, Total: header.Total, ElapsedMS: elapsedMS(),
			})
		}
	}
}
