package rsl

import "testing"

var benchSpecs = map[string]string{
	"relation": "(executable=/bin/date)",
	"job": "&(executable=/bin/app)(arguments=one two three)(count=4)" +
		"(environment=(PATH /bin)(LANG C))(directory=/tmp)(maxtime=10)",
	"substitution": `&(rsl_substitution=(BASE /usr)(EXE $(BASE)#/bin/app))` +
		`(executable=$(EXE))(directory=$(BASE))`,
	"multirequest": "+(&(info=all))(&(executable=a))(&(executable=b)(count=2))",
}

func BenchmarkParse(b *testing.B) {
	for name, src := range benchSpecs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnparse(b *testing.B) {
	n := MustParse(benchSpecs["job"])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Unparse()
	}
}

func BenchmarkSpecEvaluation(b *testing.B) {
	env := NewEnv("HOME", "/home/bench", "LOGNAME", "bench")
	src := benchSpecs["substitution"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := ParseSpec(src, env)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := spec.First("executable"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttrEqual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !AttrEqual("Max_Wall_Time", "maxwalltime") || AttrEqual("environment", "executable") {
			b.Fatal("AttrEqual misbehaves")
		}
	}
}
