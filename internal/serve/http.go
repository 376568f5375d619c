package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"

	"congame/internal/scenario"
)

// routes wires the /v1 API, health, metrics, and pprof onto one mux.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.Handle("GET /metrics", s.reg)
	s.mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteJSON(w)
	})
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxSpecBytes bounds a submitted spec body.
const maxSpecBytes = 4 << 20

// handleSubmit accepts a scenario spec as the request body (the same
// JSON cmd/sweep -spec reads, any supported version) and enqueues it.
// ?quick=1 applies the spec's quick-mode overrides. Responds 202 with the
// job record.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "spec body exceeds %d bytes", maxSpecBytes)
		return
	}
	spec, err := scenario.Parse(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	quick := r.URL.Query().Get("quick") == "1" || r.URL.Query().Get("quick") == "true"
	rec, err := s.submit(body, spec, quick)
	if errors.Is(err, errQueueFull) {
		writeError(w, http.StatusServiceUnavailable, "job queue is full (%d pending)", s.cfg.QueueDepth)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

// handleList returns every job's record in creation order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	recs := make([]jobRecord, len(jobs))
	for i, j := range jobs {
		recs[i] = j.record()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": recs})
}

// pathJob resolves the {id} path segment, writing 404 on a miss.
func (s *Server) pathJob(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j := s.job(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.pathJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.record())
	}
}

// handleCancel cancels a queued or running job. The running case goes
// through context cancellation: the checkpointing runner persists a
// snapshot and unwinds, and the job lands in status "canceled" with its
// checkpoint intact on disk.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	if !s.cancelJob(j) {
		writeError(w, http.StatusConflict, "job %s is %s — nothing to cancel", j.id, j.record().Status)
		return
	}
	writeJSON(w, http.StatusOK, j.record())
}

// handleResult serves the rendered table of a finished job.
// ?format=text|csv|markdown|json selects the encoding (default text).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	rf, ok := resultFiles[format]
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown format %q (valid: text, csv, markdown, json)", format)
		return
	}
	if st := j.record().Status; st != StatusDone {
		writeError(w, http.StatusConflict, "job %s is %s — no result yet", j.id, st)
		return
	}
	data, err := os.ReadFile(filepath.Join(j.dir, rf.file))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", rf.contentType)
	_, _ = w.Write(data)
}

// sseFrame writes one journal line as an SSE data frame.
func sseFrame(w io.Writer, line []byte) error {
	if _, err := fmt.Fprintf(w, "data: %s\n\n", line); err != nil {
		return err
	}
	return nil
}

// sseEnd writes the terminal frame carrying the job's final status.
func sseEnd(w io.Writer, st Status) {
	_, _ = fmt.Fprintf(w, "event: end\ndata: {\"status\":%q}\n\n", st)
}

// handleEvents streams the job's journal as Server-Sent Events: each
// frame's data is one obs.Journal NDJSON row, byte-identical to the
// journal.ndjson line (and to what cmd/sweep -journal writes for the
// same run). The stream replays the full history first — including
// rounds executed by a previous daemon before a resume — then follows
// live, and ends with an `event: end` frame carrying the terminal
// status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// A finished job's broadcaster has released its history (a job
	// finished by an earlier daemon process never had one); its on-disk
	// journal is complete by then and serves the stream instead.
	history, ch, id, live := j.bcast.subscribe()
	if !live {
		s.streamJournalFile(w, fl, j, j.record().Status)
		return
	}
	defer j.bcast.unsubscribe(id)
	for _, line := range history {
		if err := sseFrame(w, line); err != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case line, ok := <-ch:
			if !ok {
				if j.bcast.dropped(id) {
					// Fell behind; the client reconnects and replays.
					_, _ = io.WriteString(w, ": dropped — reconnect to replay\n\n")
					fl.Flush()
					return
				}
				sseEnd(w, j.record().Status)
				fl.Flush()
				return
			}
			if err := sseFrame(w, line); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// streamJournalFile replays a terminal job's journal from disk.
func (s *Server) streamJournalFile(w io.Writer, fl http.Flusher, j *Job, st Status) {
	data, err := os.ReadFile(filepath.Join(j.dir, "journal.ndjson"))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return
	}
	for len(data) > 0 {
		i := 0
		for i < len(data) && data[i] != '\n' {
			i++
		}
		if i == len(data) {
			break // ignore a torn trailing line
		}
		if err := sseFrame(w, data[:i]); err != nil {
			return
		}
		data = data[i+1:]
	}
	sseEnd(w, st)
	fl.Flush()
}
