// Cross-dataset standardization (the paper's "different corpus" scenario,
// Section 6.3.3): a Spaceship-Titanic script is standardized using the
// corpus of the original Titanic competition. The two datasets share column
// names (notably Age), so lemmatized steps transfer; improvements are
// smaller than with an on-topic corpus, as the paper reports.
package main

import (
	"fmt"
	"log"

	"lucidscript"
	"lucidscript/internal/corpusgen"
)

const spaceshipScript = `import pandas as pd
df = pd.read_csv("spaceship.csv")
df = df[df["Age"] < 80]
y = df["Transported"]
`

func main() {
	titanic, err := corpusgen.Get("Titanic")
	if err != nil {
		log.Fatal(err)
	}
	titanicGen, err := titanic.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	spaceship, err := corpusgen.Get("Spaceship")
	if err != nil {
		log.Fatal(err)
	}
	spaceGen, err := spaceship.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.05})
	if err != nil {
		log.Fatal(err)
	}

	// The corpus comes from Titanic; the data (and input script) from
	// Spaceship. Titanic steps that reference Spaceship-absent columns fail
	// the execution check and are pruned automatically.
	sys, err := lucidscript.NewSystem(titanicGen.ScriptsOnly(), spaceGen.Sources, lucidscript.Options{
		Measure: lucidscript.IntentJaccard,
		Tau:     0.9,
	})
	if err != nil {
		log.Fatal(err)
	}

	input, err := lucidscript.ParseScript(spaceshipScript)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Spaceship input script ===")
	fmt.Print(input.Source())
	fmt.Printf("RE vs Titanic corpus = %.3f\n\n", sys.RE(input))

	res, err := sys.Standardize(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== standardized with the Titanic corpus ===")
	fmt.Print(res.Script.Source())
	fmt.Printf("RE = %.3f (%.1f%% improvement), Δ_J = %.3f\n", res.REAfter, res.ImprovementPct, res.IntentValue)
	for _, tr := range res.Applied {
		fmt.Println("  " + tr.String())
	}
	if res.ImprovementPct == 0 {
		fmt.Println("(no admissible cross-corpus improvement at τ_J = 0.9 — relax τ to allow more drift)")
	}
}
