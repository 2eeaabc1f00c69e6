// Quickstart: the paper's running example (Figures 1a/1b) end to end using
// only the public lucidscript API. Alex's script imputes with the median
// and filters young adults; the corpus imputes with the mean and removes
// SkinThickness outliers. Standardization swaps the imputation statistic
// and adds the outlier filter while preserving her intent.
package main

import (
	"fmt"
	"log"
	"strings"

	"lucidscript"
)

// diabetesCSV is a small inline slice of a Pima-style dataset (the real
// system reads diabetes.csv from disk).
const diabetesCSV = `Pregnancies,Glucose,SkinThickness,Age,Outcome
6,148,35,50,1
1,85,29,31,0
8,183,,32,1
1,89,23,21,0
0,137,35,33,1
5,116,25,30,0
3,78,32,26,1
10,115,,29,0
2,197,45,53,1
8,125,96,54,1
4,110,37,30,0
10,168,15,34,1
10,139,90,57,0
1,189,23,59,1
5,166,19,51,1
7,100,47,32,1
0,118,30,31,1
7,107,31,31,1
1,103,38,33,0
1,115,30,32,1
3,126,41,27,0
8,99,35,50,0
7,196,33,41,1
9,119,29,29,1
11,143,37,51,1
10,125,54,41,1
7,147,6,43,1
1,97,42,22,0
13,145,19,57,0
5,117,24,38,0
2,109,43,30,0
3,158,28,28,1
`

// The corpus: scripts other researchers published for the same dataset.
var corpusSources = []string{
	`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
y = df["Outcome"]
`,
	`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
`,
	`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
y = df["Outcome"]
`,
	`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
y = df["Outcome"]
`,
	`import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.mean())
df = df[df["SkinThickness"] < 80]
df = pd.get_dummies(df)
y = df["Outcome"]
`,
}

// Alex's draft (Figure 1a): median imputation + her modeling-objective
// filter, missing the corpus-standard outlier handling.
const alexScript = `import pandas as pd
df = pd.read_csv("diabetes.csv")
df = df.fillna(df.median())
df = df[df["Age"].between(18, 25)]
df = pd.get_dummies(df)
`

func main() {
	data, err := lucidscript.ReadCSV(strings.NewReader(diabetesCSV))
	if err != nil {
		log.Fatal(err)
	}
	var corpus []*lucidscript.Script
	for _, src := range corpusSources {
		s, err := lucidscript.ParseScript(src)
		if err != nil {
			log.Fatal(err)
		}
		corpus = append(corpus, s)
	}
	sys, err := lucidscript.NewSystem(corpus,
		map[string]*lucidscript.Frame{"diabetes.csv": data},
		lucidscript.Options{
			Measure: lucidscript.IntentJaccard,
			Tau:     0.5, // Alex allows generous drift for this small demo
		})
	if err != nil {
		log.Fatal(err)
	}
	input, err := lucidscript.ParseScript(alexScript)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Alex's input script (Figure 1a) ===")
	fmt.Print(alexScript)
	fmt.Printf("\nstandardness RE = %.3f\n\n", sys.RE(input))

	res, err := sys.Standardize(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Standardized output (Figure 1b) ===")
	fmt.Print(res.Script.Source())
	fmt.Printf("\nstandardness RE = %.3f (%.1f%% improvement)\n", res.REAfter, res.ImprovementPct)
	fmt.Printf("intent preserved: table Jaccard = %.3f\n", res.IntentValue)
	fmt.Println("\napplied transformations:")
	for _, tr := range res.Applied {
		fmt.Println("  " + tr.String())
	}
}
