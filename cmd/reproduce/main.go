// Command reproduce regenerates every artifact of the reproduction —
// Table 1, Figures 3-6, the ablations and the extension experiments —
// writing one text file per artifact into an output directory. With
// -quick the run lengths are scaled down ~10x for a fast smoke
// reproduction; the default is paper scale.
//
//	go run ./cmd/reproduce -out results [-quick]
//
// Next to each artifact a run manifest is appended as one JSON line
// (<artifact>.manifest.jsonl) recording the schema version, command
// line, seeds, worker count, simulated cycles, wall time, and
// throughput, so any results file can be traced to the run that
// produced it; -manifest=false disables this. -progress renders a
// live jobs-completed line per artifact on stderr (-quiet overrides).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		out      = flag.String("out", "results", "output directory")
		quick    = flag.Bool("quick", false, "scale run lengths down ~10x")
		seed     = flag.Uint64("seed", 1, "random seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for independent simulation jobs (1 = serial; artifacts are identical for any value)")
		progress = flag.Bool("progress", false, "render a jobs-completed progress line per artifact on stderr")
		quiet    = flag.Bool("quiet", false, "suppress the progress line (overrides -progress)")
		manifest = flag.Bool("manifest", true, "append a JSONL run manifest next to each artifact")
	)
	flag.Parse()
	if err := run(*out, *quick, *seed, *parallel, *progress && !*quiet, *manifest); err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
}

// step is one artifact of the reproduction.
type step struct {
	file string
	run  func(experiments.Config) (experiments.Result, error)
}

func run(outDir string, quick bool, seed uint64, parallel int, progress, manifest bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Figure 3 is a hand-traced example; every other artifact is a
	// table experiment, run under its canonical name.
	steps := []step{{"fig3.txt", func(experiments.Config) (experiments.Result, error) { return experiments.RunFig3(), nil }}}
	for _, e := range experiments.Table() {
		if e.File != "" {
			e := e
			steps = append(steps, step{e.File, func(c experiments.Config) (experiments.Result, error) {
				return e.Run(e.Names[0], c)
			}})
		}
	}
	for _, s := range steps {
		c := experiments.Config{Seed: seed, Quick: quick}
		c.Workers = parallel
		if progress {
			c.Progress = obs.NewProgress(os.Stderr, s.file)
		}
		start := time.Now()
		res, err := s.run(c)
		if err != nil {
			return fmt.Errorf("%s: %w", s.file, err)
		}
		wall := time.Since(start)
		artifact := filepath.Join(outDir, s.file)
		f, err := os.Create(artifact)
		if err != nil {
			return err
		}
		if err := res.Render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if manifest {
			info := obs.RunInfo{Experiment: s.file[:len(s.file)-len(".txt")], Workers: 1}
			if mi, ok := res.(interface{ RunInfo() obs.RunInfo }); ok {
				info = mi.RunInfo()
			}
			m := obs.NewManifest(info, artifact, wall)
			if err := m.AppendTo(obs.ManifestPath(artifact)); err != nil {
				return fmt.Errorf("%s: manifest: %w", s.file, err)
			}
		}
		fmt.Printf("wrote %-16s (%d ms)\n", s.file, wall.Milliseconds())
	}
	return nil
}
