package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"intervalsim/internal/service"
)

// The CSV columns of each sweep engine.
var (
	simHeaders = []string{"width", "depth", "rob", "ipc", "avg_penalty",
		"penalty_frontend", "penalty_drain", "penalty_fu", "penalty_shortd", "penalty_longd"}
	modelHeaders = []string{"width", "depth", "rob", "ipc", "avg_penalty",
		"cpi_base", "cpi_bpred", "cpi_icache", "cpi_longd"}
	sampledHeaders = []string{"width", "depth", "rob", "ipc",
		"cpi", "cpi_lo", "cpi_hi", "cpi_rel_err", "units"}
)

// CSVSink is the one renderer of sweep CSV: in-process cmd/sweep, sweep
// -endpoints and sweepctl all write their rows through it, so a
// single-benchmark sweep has the same bytes whichever path computed it.
// Sweeping multiple benchmarks prepends a "bench" column. Failed points
// produce no row (the fail-soft convention: errors go to the log and the
// exit code).
type CSVSink struct {
	w           io.Writer
	mode        string
	multiBench  bool
	wroteHeader bool
}

// NewCSVSink returns a sink writing mode-appropriate CSV to w.
func NewCSVSink(w io.Writer, mode string, multiBench bool) *CSVSink {
	return &CSVSink{w: w, mode: mode, multiBench: multiBench}
}

func (s *CSVSink) header() error {
	s.wroteHeader = true
	hs := simHeaders
	switch s.mode {
	case "model":
		hs = modelHeaders
	case "sampled":
		hs = sampledHeaders
	}
	if s.multiBench {
		hs = append([]string{"bench"}, hs...)
	}
	_, err := fmt.Fprintln(s.w, strings.Join(hs, ","))
	return err
}

// Emit writes one merged row.
func (s *CSVSink) Emit(row *Row) error {
	if !s.wroteHeader {
		if err := s.header(); err != nil {
			return err
		}
	}
	if row.Point.Error != "" {
		return nil
	}
	pt := row.Point
	cells := []string{
		fmt.Sprintf("%d", pt.Width), fmt.Sprintf("%d", pt.Depth), fmt.Sprintf("%d", pt.ROB),
		fmt.Sprintf("%.3f", pt.IPC),
	}
	switch s.mode {
	case "model":
		cells = append(cells,
			fmt.Sprintf("%.2f", pt.AvgPenalty),
			fmt.Sprintf("%.3f", pt.CPIBase),
			fmt.Sprintf("%.3f", pt.CPIBpred),
			fmt.Sprintf("%.3f", pt.CPIICache),
			fmt.Sprintf("%.3f", pt.CPILongData),
		)
	case "sampled":
		cells = append(cells,
			fmt.Sprintf("%.4f", pt.CPI),
			fmt.Sprintf("%.4f", pt.CPILo),
			fmt.Sprintf("%.4f", pt.CPIHi),
			fmt.Sprintf("%.4f", pt.CPIRelErr),
			fmt.Sprintf("%d", pt.SampleUnits),
		)
	default:
		cells = append(cells,
			fmt.Sprintf("%.2f", pt.AvgPenalty),
			fmt.Sprintf("%.2f", pt.PenFrontend),
			fmt.Sprintf("%.2f", pt.PenDrain),
			fmt.Sprintf("%.2f", pt.PenFU),
			fmt.Sprintf("%.2f", pt.PenShortD),
			fmt.Sprintf("%.2f", pt.PenLongD),
		)
	}
	if s.multiBench {
		cells = append([]string{row.Bench}, cells...)
	}
	_, err := fmt.Fprintln(s.w, strings.Join(cells, ","))
	return err
}

// Finish writes the header if no row ever did, so an all-failed sweep still
// emits a well-formed, empty CSV.
func (s *CSVSink) Finish() error {
	if s.wroteHeader {
		return nil
	}
	return s.header()
}

// NDJSONSink streams merged rows as NDJSON, one object per design point
// including failed ones, for downstream tooling that wants raw float64
// values rather than formatted CSV cells.
type NDJSONSink struct {
	enc *json.Encoder
}

// NewNDJSONSink returns a sink writing NDJSON to w.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{enc: json.NewEncoder(w)}
}

type ndjsonRow struct {
	Bench string `json:"bench"`
	service.BatchPoint
}

// Emit writes one merged row.
func (s *NDJSONSink) Emit(row *Row) error {
	return s.enc.Encode(ndjsonRow{Bench: row.Bench, BatchPoint: row.Point})
}
