# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-quick ablations examples fmt fmt-check clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:            ## regenerate the paper's tables (minutes)
	dune exec bench/main.exe

bench-quick:      ## small-circuit subset
	dune exec bench/main.exe -- --quick

ablations:        ## design-choice ablations A-F
	dune exec bench/main.exe -- --ablations

examples:
	dune exec examples/quickstart.exe
	dune exec examples/compaction_flow.exe
	dune exec examples/at_speed_delay.exe
	dune exec examples/custom_circuit.exe
	dune exec examples/diagnosis.exe

fmt:              ## reformat in place (needs ocamlformat)
	dune build @fmt --auto-promote

fmt-check:        ## check formatting without modifying files
	dune build @fmt

clean:
	dune clean
