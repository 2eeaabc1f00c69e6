// Command lsrun executes an LSL data-preparation script against one or
// more CSV files and prints the resulting table as CSV.
//
// Usage:
//
//	lsrun -script prep.ls -data diabetes.csv [-data other.csv] [-head 20]
//
// Each -data file is registered under its base name, so a script line like
// pd.read_csv("diabetes.csv") resolves to the file passed as
// -data /path/to/diabetes.csv.
package main

import (
	"flag"
	"fmt"
	"os"

	"lucidscript"
	"lucidscript/internal/interp"
)

func main() {
	var (
		scriptPath = flag.String("script", "", "path to the LSL script (required)")
		head       = flag.Int("head", 0, "print only the first N rows (0 = all)")
		seed       = flag.Int64("seed", 1, "seed for df.sample")
		dataPaths  []string
	)
	flag.Func("data", "CSV data file (repeatable)", func(v string) error {
		dataPaths = append(dataPaths, v)
		return nil
	})
	flag.Parse()

	if *scriptPath == "" || len(dataPaths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lsrun -script prep.ls -data file.csv [-data more.csv]")
		os.Exit(2)
	}
	srcBytes, err := os.ReadFile(*scriptPath)
	if err != nil {
		fatal(err)
	}
	s, err := lucidscript.ParseScript(string(srcBytes))
	if err != nil {
		fatal(err)
	}
	sources, err := lucidscript.ReadSources(dataPaths)
	if err != nil {
		fatal(err)
	}
	res, err := interp.Run(s, sources, interp.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	if res.Main == nil {
		fatal(fmt.Errorf("script produced no output dataset"))
	}
	out := res.Main
	if *head > 0 {
		out = out.Head(*head)
	}
	if err := out.WriteCSV(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "[%d rows x %d cols]\n", res.Main.NumRows(), res.Main.NumCols())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsrun:", err)
	os.Exit(1)
}
