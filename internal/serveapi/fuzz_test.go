package serveapi

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobRequestJSON hardens the request-parsing layer: arbitrary JSON must
// never panic, and any request that passes validation must satisfy every
// resource guard the server relies on downstream — the guards are what keep
// one request from allocating the machine, so a validation bypass is a
// denial-of-service bug. Hand-picked bad requests were covered by unit
// tests; this explores the rest of the input space. Both the /solve shape
// and the /batch//jobs envelope are exercised.
func FuzzJobRequestJSON(f *testing.F) {
	f.Add([]byte(cheapJob))
	f.Add([]byte(`{"pitch":15,"rows":10,"cols":10,"deltaT":-250,"gridSamples":100}`))
	f.Add([]byte(`{"rows":1,"cols":1,"solver":"direct","structure":"annular","resolution":"coarse","quadratic":true}`))
	f.Add([]byte(`{"rows":512,"cols":512,"gridSamples":500}`))
	f.Add([]byte(`{"rows":1,"cols":1,"deltaT":0,"includeField":true,"gridSamples":3}`))
	f.Add([]byte(`{"rows":2,"cols":2,"solver":"cg","precond":"ic0"}`))
	f.Add([]byte(`{"rows":2,"cols":2,"precond":"bogus"}`))
	f.Add([]byte(`{"rows":1e9,"cols":-3,"nodes":99,"tol":-1}`))
	f.Add([]byte(`{"jobs":[{"rows":1,"cols":1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(req JobRequest) {
			job, err := req.ToJob()
			if err != nil {
				return // rejected; only panics are bugs
			}
			if job.Rows < 1 || job.Cols < 1 || job.Rows > maxArrayDim || job.Cols > maxArrayDim {
				t.Fatalf("validated job has out-of-range dims %dx%d", job.Rows, job.Cols)
			}
			if job.GridSamples < 0 || job.GridSamples > maxGridSamples {
				t.Fatalf("validated job has gridSamples %d", job.GridSamples)
			}
			if total := req.fieldSamples(); total > maxFieldSamples {
				t.Fatalf("validated job would hold %d field samples", total)
			}
			if req.IncludeField && job.GridSamples == 0 {
				t.Fatal("validated job includes a field with no samples")
			}
			if req.Nodes != 0 && (req.Nodes < 2 || req.Nodes > 8) {
				t.Fatalf("validated job has %d interpolation nodes", req.Nodes)
			}
		}

		// The /solve shape, decoded exactly as decodeJSON does.
		var single JobRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&single); err == nil {
			check(single)
		}

		// The /batch and /jobs envelope.
		var batch BatchRequest
		dec = json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&batch); err == nil {
			if len(batch.Jobs) > maxBatchJobs {
				return // the handler rejects before per-job validation
			}
			var total int64
			for _, req := range batch.Jobs {
				check(req)
				total += req.fieldSamples()
			}
			_ = total // the aggregate cap is checked by the handler after per-job validation
		}
	})
}
