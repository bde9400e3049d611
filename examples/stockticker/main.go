// Stockticker: the paper's introduction motivates distribution-based
// filtering with stock tickers, where "users are mainly interested in a
// small range of values for certain shares; the event data display high
// concentrations at selected values". This example compares the static
// natural-order filter against the adaptive distribution-aware filter on a
// concentrated quote stream, then shifts the market regime and shows the
// filter restructuring itself.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"genas"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

const (
	symbols   = 40 // categorical share symbols
	quotes    = 30000
	profiles  = 300
	priceLow  = 0.0
	priceHigh = 500.0
)

func run() error {
	labels := make([]string, symbols)
	for i := range labels {
		labels[i] = fmt.Sprintf("SYM%02d", i)
	}
	symDom, err := genas.NewCategoricalDomain(labels...)
	if err != nil {
		return err
	}
	sch := genas.MustSchema(
		genas.Attr("symbol", symDom),
		genas.Attr("price", genas.MustNumericDomain(priceLow, priceHigh)),
		genas.Attr("volume", genas.MustNumericDomain(0, 1e6)),
	)

	static, err := genas.NewService(sch)
	if err != nil {
		return err
	}
	defer static.Close()
	adaptive, err := genas.NewService(sch, genas.WithAdaptivePolicy(1000, 0.05, true))
	if err != nil {
		return err
	}
	defer adaptive.Close()

	// Users watch narrow price bands on a handful of hot symbols: typed
	// profiles with categorical labels, no expression formatting.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < profiles; i++ {
		sym := rng.Intn(6) // interest concentrates on six shares
		center := 90 + rng.Float64()*40
		b := genas.NewProfile(fmt.Sprintf("watch%03d", i)).
			Where("symbol", genas.Is(labels[sym])).
			Where("price", genas.Between(math.Round(center-2), math.Round(center+2)))
		if _, err := b.Subscribe(static); err != nil {
			return err
		}
		if _, err := b.Subscribe(adaptive); err != nil {
			return err
		}
	}

	publish := func(svc *genas.Service, regimeHot bool) error {
		for i := 0; i < quotes; i++ {
			sym := rng.Intn(symbols)
			price := priceLow + rng.Float64()*priceHigh
			if regimeHot && rng.Float64() < 0.8 {
				sym = rng.Intn(6)             // hot symbols dominate the tape
				price = 90 + rng.Float64()*40 // prices hover in the watched band
			}
			// The positional zero-allocation path: values in schema order.
			_, err := svc.PublishValues(float64(sym), price, rng.Float64()*1e6)
			if err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Println("phase 1: concentrated market (80% of quotes on 6 hot symbols)")
	if err := publish(static, true); err != nil {
		return err
	}
	if err := publish(adaptive, true); err != nil {
		return err
	}
	report(static, adaptive)

	fmt.Println("\nphase 2: regime shift (uniform tape) — the adaptive filter restructures")
	if err := publish(static, false); err != nil {
		return err
	}
	if err := publish(adaptive, false); err != nil {
		return err
	}
	report(static, adaptive)
	fmt.Printf("\nadaptive restructures total: %d\n", adaptive.Restructures())
	return nil
}

func report(static, adaptive *genas.Service) {
	ss, as := static.Stats(), adaptive.Stats()
	fmt.Printf("  static   (uniform prior): mean %.2f ops/quote\n", ss.MeanOps)
	fmt.Printf("  adaptive (P_e + A2):      mean %.2f ops/quote\n", as.MeanOps)
	if as.MeanOps > 0 {
		fmt.Printf("  speedup: %.2fx fewer comparisons per quote\n", ss.MeanOps/as.MeanOps)
	}
}
