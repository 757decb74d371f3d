package main

import (
	"context"
	"flag"
	"fmt"

	"d2t2"
)

// cmdCompare runs every tiling scheme — Conservative, Prescient, D2T2 —
// on the same inputs and prints traffic, runtime and energy side by
// side on the chosen machine.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	files := inputFlags{}
	fs.Var(files, "input", "NAME=FILE (repeatable; FILE may be dataset:LABEL[:SCALE])")
	kernel := fs.String("kernel", "C(i,j) = A(i,k) * B(k,j) | order: i,k,j", "TIN kernel")
	tile := fs.Int("tile", 128, "buffer sized for this dense square tile")
	machine := fs.String("machine", "extensor", "machine model: extensor or opal")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := d2t2.ParseKernel(*kernel)
	if err != nil {
		return err
	}
	inputs, err := loadInputs(files)
	if err != nil {
		return err
	}
	var arch d2t2.Arch
	switch *machine {
	case "extensor":
		arch = d2t2.Extensor()
	case "opal":
		arch = d2t2.Opal()
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}
	buffer := d2t2.DenseTileWords(*tile, *tile)
	ctx := context.Background()

	type rowT struct {
		name   string
		cfg    d2t2.TileConfig
		report *d2t2.TrafficReport
	}
	var rows []rowT

	cons := d2t2.ConservativeConfig(k, buffer)
	consRep, err := d2t2.MeasureConfig(ctx, k, inputs, cons)
	if err != nil {
		return err
	}
	rows = append(rows, rowT{"conservative", cons, consRep})

	pres, err := d2t2.PrescientConfig(ctx, k, inputs, buffer)
	if err != nil {
		return err
	}
	presRep, err := d2t2.MeasureConfig(ctx, k, inputs, pres)
	if err != nil {
		return err
	}
	rows = append(rows, rowT{"prescient", pres, presRep})

	plan, err := d2t2.OptimizeCtx(ctx, k, inputs, d2t2.Options{BufferWords: buffer})
	if err != nil {
		return err
	}
	d2Rep, err := plan.MeasureCtx(ctx)
	if err != nil {
		return err
	}
	rows = append(rows, rowT{"d2t2", plan.Config, d2Rep})

	energy := d2t2.DefaultEnergy()
	fmt.Printf("%-14s %-28s %12s %12s %12s %10s\n",
		"scheme", "config", "traffic MB", "cycles", "energy uJ", "speedup")
	for _, r := range rows {
		fmt.Printf("%-14s %-28s %12.3f %12.0f %12.3f %9.2fx\n",
			r.name, configString(r.cfg), r.report.TotalMB(),
			d2t2.Runtime(r.report, arch),
			d2t2.EnergyPJ(r.report, energy)/1e6,
			d2t2.Speedup(consRep, r.report, arch))
	}
	return nil
}
