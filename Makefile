GO ?= go

.PHONY: all build vet lint test race verify regdiff scales sizes bench benchpairs allocsites

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Whole-program static analysis, six checks: determinism invariants
# (wallclock, rand, maprange, nogoroutine, tickpurity) plus the error-drop
# check. An accepted finding is annotated at its site
# (//imcalint:allow <check> <reason>). See DESIGN.md "Static analysis".
lint:
	$(GO) run ./cmd/imcalint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# Tier-1 check: gofmt + vet + build + lint + race tests + example link check.
verify:
	sh scripts/verify.sh

# The behaviour contract: every registry table at scale 16, serial and
# parallel, byte-identical to results_scale16.txt (wall times stripped).
regdiff:
	sh scripts/regdiff.sh

# The claims at every scale: the registry at scales 4096 down to 4, each
# scale's scorecard, wall time and peak RSS, and every claim whose verdict differs
# from the scale before. A record, not a gate.
scales:
	sh scripts/scales.sh

# Lines and code lines (not blank, not comment) of the tracked non-test
# .go files, per package and in total. A record, not a gate.
sizes:
	sh scripts/sizes.sh

bench:
	$(GO) test -bench . -benchtime=1x

# Paired parent/change runs of each benchmark workload in WORKLOAD (one
# name or a quoted space-separated list; both sides are built once) — the
# "Claiming a gain" procedure of benchmark/README.md: medians, quartiles,
# pairs won, virt_digest equality, then one traced pass per side with the
# per-layer CPU shares side by side. WORKLOAD is required.
PARENT ?= HEAD~1
PAIRS ?= 10
SEED ?= 1
benchpairs:
	bash scripts/benchpairs.sh "$(WORKLOAD)" "$(PARENT)" "$(PAIRS)" "$(SEED)"

# Where one benchmark allocates: alloc_objects by function, flat and
# cumulative (every allocation sampled). BENCH is a -bench regex; PKG is its
# package directory, by default the root bench_test.go figures; BENCHTIME is
# its -benchtime, by default one run of a figure.
PKG ?= .
BENCHTIME ?= 1x
allocsites:
	sh scripts/allocsites.sh "$(BENCH)" "$(PKG)" "$(BENCHTIME)"
