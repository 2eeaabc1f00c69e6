// Pareto exploration and explanations (the paper's Section 8 extensions):
// a single beam search explores the whole intent-threshold space, showing
// the standardness the user can buy at each level of intent drift, and
// each recommended edit is justified by its corpus frequency and RE impact.
package main

import (
	"fmt"
	"log"

	"lucidscript"
	"lucidscript/internal/corpusgen"
)

const draft = `import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = df[df["Age"].between(18, 25)]
df = pd.get_dummies(df)
`

func main() {
	comp, err := corpusgen.Get("Medical")
	if err != nil {
		log.Fatal(err)
	}
	gen, err := comp.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := lucidscript.NewSystem(gen.ScriptsOnly(), gen.Sources, lucidscript.Options{
		Measure: lucidscript.IntentJaccard,
		Tau:     0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	input, err := lucidscript.ParseScript(draft)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== intent/standardness trade-off (one search, many thresholds) ===")
	fmt.Println("τ_J     %improvement   Δ_J of output")
	taus := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}
	points, err := sys.ParetoFrontier(input, taus)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("%.2f    %6.1f%%        %.3f\n", p.Tau, p.ImprovementPct, p.IntentValue)
	}

	fmt.Println("\n=== standardization at τ_J = 0.9, with explanations ===")
	res, err := sys.Standardize(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Script.Source())
	fmt.Printf("\n%.1f%% improvement; each edit justified:\n", res.ImprovementPct)
	for _, ex := range sys.Explain(res) {
		fmt.Println("  • " + ex.String())
	}
}
