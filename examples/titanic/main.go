// Titanic case study (the paper's Table 4): starting from a script that
// merely loads the data, standardization against a synthetic Titanic corpus
// progressively adds the corpus-common preparation steps, lowering the
// relative-entropy score while preserving intent, and the downstream model
// is trained on each variant to show Δ_M stays within bounds.
package main

import (
	"fmt"
	"log"

	"lucidscript"
	"lucidscript/internal/corpusgen"
	"lucidscript/internal/intent"
)

func main() {
	comp, err := corpusgen.Get("Titanic")
	if err != nil {
		log.Fatal(err)
	}
	gen, err := comp.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := lucidscript.NewSystem(gen.ScriptsOnly(), gen.Sources, lucidscript.Options{
		Measure:      lucidscript.IntentModel,
		Tau:          2, // allow up to 2% model-accuracy drift
		TargetColumn: "Survived",
	})
	if err != nil {
		log.Fatal(err)
	}
	stats := sys.Stats()
	fmt.Printf("corpus: %d scripts, %d unique 1-gram atoms, %d line atoms, %d edges\n\n",
		stats.Scripts, stats.UniqueUnigrams, stats.UniqueNgrams, stats.UniqueEdges)

	input, err := lucidscript.ParseScript(`import pandas as pd
df = pd.read_csv("train.csv")
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== input: a script that only loads the data ===")
	fmt.Print(input.Source())
	accBefore, err := intent.ModelAccuracy(gen.Sources["train.csv"], intent.ModelConfig{Target: "Survived"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RE = %.3f, downstream accuracy on raw table = %.3f\n\n", sys.RE(input), accBefore)

	res, err := sys.Standardize(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== standardized output ===")
	fmt.Print(res.Script.Source())
	fmt.Printf("RE = %.3f (%.1f%% improvement), Δ_M = %.2f%%\n", res.REAfter, res.ImprovementPct, res.IntentValue)
	fmt.Println("\napplied transformations:")
	for _, tr := range res.Applied {
		fmt.Println("  " + tr.String())
	}
}
