// Command tablegen is the paper's figure 4 prototype tool: from a
// textual model (precedence graph, Cav/Cwc tables, deadlines) it
// generates the artifacts the compiler links into the controlled
// application — the EDF schedule, the precomputed constraint tables, and
// a C-like controlled-application source listing.
//
// It can also (re)generate the built-in MPEG-4 macroblock body model
// (the figure 2 graph with the figure 5 times), the fixture at
// examples/models/mpeg_body.qos.
//
// Usage:
//
//	tablegen -model app.qos -o out/        # writes schedule.txt, tables.txt, controlled.c
//	tablegen -model app.qos -stdout        # dump everything to stdout
//	tablegen -emit-mpeg-body -o examples/models/   # write mpeg_body.qos
//	tablegen -emit-mpeg-body -stdout               # print the model
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/mpeg"
	"repro/internal/session"
)

func main() {
	var (
		modelPath = flag.String("model", "", "path to the textual model file")
		outDir    = flag.String("o", "", "output directory (created if missing)")
		stdout    = flag.Bool("stdout", false, "write everything to stdout instead")
		emitBody  = flag.Bool("emit-mpeg-body", false, "emit the built-in MPEG-4 macroblock body model instead of reading -model")
		iterate   = flag.Int("iterate", 8, "emit-mpeg-body: macroblocks per cycle")
		budget    = flag.Int64("budget", 2_500_000, "emit-mpeg-body: end-of-cycle budget in cycles")
	)
	flag.Parse()
	if *emitBody {
		if err := emitBodyModel(*outDir, *stdout, *iterate, core.Cycles(*budget)); err != nil {
			fmt.Fprintln(os.Stderr, "tablegen:", err)
			os.Exit(1)
		}
		return
	}
	if *modelPath == "" || (*outDir == "" && !*stdout) {
		fmt.Fprintln(os.Stderr, "usage: tablegen (-model <file> | -emit-mpeg-body) (-o <dir> | -stdout)")
		os.Exit(2)
	}
	if err := run(*modelPath, *outDir, *stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(1)
	}
}

func emitBodyModel(outDir string, stdout bool, iterate int, budget core.Cycles) error {
	// The model is built in memory first, so that rejected arguments
	// leave an existing mpeg_body.qos as it was.
	var buf bytes.Buffer
	if err := mpeg.WriteBodyModel(&buf, iterate, budget); err != nil {
		return err
	}
	if stdout || outDir == "" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "mpeg_body.qos"), buf.Bytes(), 0o644)
}

func run(modelPath, outDir string, stdout bool) error {
	b, err := session.LoadModel(modelPath)
	if err != nil {
		return err
	}
	sys, err := b.Build()
	if err != nil {
		return err
	}
	ar := codegen.Generate(sys)
	inst := ar.Instrumentation()
	fmt.Printf("tablegen: %d actions, %d levels, %d table entries (%d bytes), ~%d bytes code\n",
		len(ar.Alpha), len(ar.Sys.Levels), inst.TableEntries, inst.TableBytes, inst.CodeBytes)

	if stdout {
		fmt.Println("## schedule")
		if err := ar.WriteSchedule(os.Stdout); err != nil {
			return err
		}
		fmt.Println("## tables")
		if err := ar.WriteTables(os.Stdout); err != nil {
			return err
		}
		fmt.Println("## controlled.c")
		return ar.WriteC(os.Stdout)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(*os.File) error) error {
		out, err := os.Create(filepath.Join(outDir, name))
		if err != nil {
			return err
		}
		defer out.Close()
		return fn(out)
	}
	if err := write("schedule.txt", func(w *os.File) error { return ar.WriteSchedule(w) }); err != nil {
		return err
	}
	if err := write("tables.txt", func(w *os.File) error { return ar.WriteTables(w) }); err != nil {
		return err
	}
	return write("controlled.c", func(w *os.File) error { return ar.WriteC(w) })
}
