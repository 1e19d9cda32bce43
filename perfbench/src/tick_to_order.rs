//! `tick-to-order`: the application code the middleware schedules, with no
//! scheduler or admission work. An `ImpreciseTrader` runs ingest → four
//! analyses (Bollinger, MACD, RSI, fundamental) → decide against a
//! `PaperVenue`, every cycle precise and synchronous, over a seeded
//! EUR/USD stream pre-generated during set-up and replayed through
//! `ReplayFeed`. A request is one cycle, from the `ingest` call to the
//! `decide` return.

use std::sync::Arc;
use std::time::Instant;

use rtseed::obs::TraceConfig;
use rtseed_model::{Span, Topology};
use rtseed_sim::BackgroundLoad;
use rtseed_trading::execution::{ExecutionConfig, PaperVenue};
use rtseed_trading::fundamentals::{MacroFeed, MacroRelease};
use rtseed_trading::imprecise::{ImpreciseTrader, PipelineTracer};
use rtseed_trading::market::{collect_ticks, ReplayFeed, SyntheticFeed};
use rtseed_trading::strategy::{
    BollingerReversion, FundamentalBias, MacdMomentum, RsiContrarian, Signal, SignalAggregator,
    Strategy,
};
use rtseed_trading::Tick;

use crate::probes::{self, Shape};
use crate::spans::Spans;
use crate::stats::{percentile, share, Digest};
use crate::timings::{Step, Timings};
use crate::{Accounting, Better, LayerCtx, Layers, Line, Workload};

/// Ticks per round.
const TICKS: usize = 100_000;
/// Macro releases the fundamental analysis has seen before the stream.
const MACRO_RELEASES: usize = 8;
/// Non-wait opinions a trade needs.
const QUORUM: usize = 1;
/// Units per order.
const ORDER_QUANTITY: f64 = 10_000.0;
/// Span names of the four analyses, in part order.
const ANALYSES: [&str; 4] = [
    "strategy.bollinger",
    "strategy.macd",
    "strategy.rsi",
    "strategy.fundamental",
];

pub struct TickToOrder {
    ticks: Vec<Tick>,
    releases: Vec<MacroRelease>,
    acc: Accounting,
    decisions: Vec<Signal>,
    /// The trader of the last round, kept for its venue.
    last: Option<ImpreciseTrader>,
}

fn signal_code(s: Signal) -> u64 {
    match s {
        Signal::Bid => 1,
        Signal::Ask => 2,
        Signal::Wait => 3,
    }
}

impl TickToOrder {
    pub fn setup(seed: u64) -> TickToOrder {
        let ticks = collect_ticks(&mut SyntheticFeed::eur_usd(seed), TICKS);
        let mut feed = MacroFeed::new(seed, Span::from_secs(3600));
        let releases = (0..MACRO_RELEASES).map(|_| feed.next_release()).collect();
        TickToOrder {
            ticks,
            releases,
            acc: Accounting::default(),
            decisions: Vec::new(),
            last: None,
        }
    }

    /// Fresh analyses, in part order.
    fn strategies(&self) -> Vec<Box<dyn Strategy>> {
        let mut fundamental = FundamentalBias::new(1.0);
        for r in &self.releases {
            fundamental.model_mut().ingest(r);
        }
        vec![
            Box::new(BollingerReversion::standard()),
            Box::new(MacdMomentum::new(0.00002)),
            Box::new(RsiContrarian::standard()),
            Box::new(fundamental),
        ]
    }

    /// Orders the venue filled in the last round.
    fn fills(&self) -> usize {
        self.last
            .as_ref()
            .map_or(0, |t| t.venue_snapshot().fills().len())
    }

    fn trader(&self) -> ImpreciseTrader {
        ImpreciseTrader::new(
            Box::new(ReplayFeed::new(self.ticks.clone())),
            self.strategies(),
            SignalAggregator::new(QUORUM),
            PaperVenue::new(ExecutionConfig::default()),
            ORDER_QUANTITY,
        )
    }

    /// Runs every tick through `trader`; returns the digest and the summed
    /// cycle time, ns.
    fn cycles(
        &mut self,
        trader: &ImpreciseTrader,
        sp: &mut Spans,
        t: &mut Timings,
    ) -> (Digest, u64) {
        let mut d = Digest::default();
        let mut wall_ns = 0;
        for _ in 0..self.ticks.len() {
            sp.next_request();
            let start = Instant::now();
            let open = sp.enter("imprecise.ingest");
            let fed = trader.ingest();
            sp.exit(open);
            for (part, name) in ANALYSES.iter().enumerate() {
                let open = sp.enter(name);
                trader.analyze(part, &|| false);
                sp.exit(open);
            }
            let open = sp.enter("imprecise.decide");
            let signal = trader.decide();
            sp.exit(open);
            let ns = start.elapsed().as_nanos() as u64;
            t.record(Step::Request, ns);
            wall_ns += ns;
            d.add(u64::from(fed));
            d.add(signal_code(signal));
        }
        self.decisions = trader.decisions();
        self.acc = Accounting {
            jobs: self.ticks.len() as u64,
            ..Accounting::default()
        };
        (d, wall_ns)
    }
}

impl Workload for TickToOrder {
    fn round(&mut self, sp: &mut Spans, t: &mut Timings) -> Digest {
        self.last = None;
        let trader = self.trader();
        let (digest, _) = self.cycles(&trader, sp, t);
        self.last = Some(trader);
        digest
    }

    fn accounting(&self) -> Accounting {
        self.acc
    }

    fn simulated(&self) -> bool {
        false
    }

    fn lines(&self, t: &Timings, jobs_per_s: f64) -> Vec<Line> {
        let base = format!(
            "{} ticks, best of {} rounds each",
            t.count(Step::Request),
            t.rounds()
        );
        vec![
            Line {
                name: "tick_to_order_p50_ns",
                value: t.percentile(Step::Request, 50.0) as f64,
                unit: "ns",
                better: Better::Lower,
                base: base.clone(),
            },
            Line {
                name: "tick_to_order_p99_ns",
                value: t.percentile(Step::Request, 99.0) as f64,
                unit: "ns",
                better: Better::Lower,
                base,
            },
            Line {
                name: "ticks_per_s",
                value: jobs_per_s,
                unit: "1/s",
                better: Better::Higher,
                base: "ticks over the summed best cycle times".into(),
            },
        ]
    }

    /// Recomputes every decision straight from the strategies and the
    /// aggregator, and checks one fill per trade.
    fn check(&mut self) -> Result<(), String> {
        let mut strategies = self.strategies();
        let aggregator = SignalAggregator::new(QUORUM);
        let mut opinions = vec![None; strategies.len()];
        for (i, tick) in self.ticks.iter().enumerate() {
            for (o, st) in opinions.iter_mut().zip(&mut strategies) {
                st.on_tick(tick);
                *o = st.signal();
            }
            let want = aggregator.decide(&opinions);
            if self.decisions.get(i) != Some(&want) {
                return Err(format!(
                    "decision {i} differs from the direct recomputation"
                ));
            }
        }
        if self.decisions.len() != self.ticks.len() {
            return Err("trader made a decision per tick".into());
        }
        let trades = self
            .decisions
            .iter()
            .filter(|&&s| s != Signal::Wait)
            .count();
        let fills = self.fills();
        if trades != fills {
            return Err(format!("{trades} trades but {fills} fills"));
        }
        if trades == 0 {
            return Err("the stream produced no trade".into());
        }
        Ok(())
    }

    fn layers(&mut self, ctx: &LayerCtx, out: &mut Layers) -> Result<(), String> {
        let p = |name: &str, q: f64| percentile(&mut ctx.spans.durations(name), q) as f64;
        out.set("imprecise.ingest_ns", p("imprecise.ingest", 50.0));
        out.set("strategy.bollinger_ns", p("strategy.bollinger", 50.0));
        out.set("strategy.macd_ns", p("strategy.macd", 50.0));
        out.set("strategy.rsi_ns", p("strategy.rsi", 50.0));
        out.set("strategy.fundamental_ns", p("strategy.fundamental", 50.0));
        out.set("imprecise.decide_ns", p("imprecise.decide", 50.0));
        out.set("imprecise.decide_p99_ns", p("imprecise.decide", 99.0));
        out.set(
            "execution.fill_share",
            share(self.fills() as u64, self.ticks.len() as u64),
        );

        // Pipeline tracer (the obs recorder on this path) on vs off.
        let pct = probes::recorder_overhead_pct(|recording| {
            let trader = self.trader();
            let tracer = recording.then(|| {
                let capacity = self.ticks.len() * 8;
                Arc::new(PipelineTracer::new(TraceConfig::bounded(capacity)))
            });
            if let Some(tracer) = &tracer {
                trader.attach_tracer(Arc::clone(tracer));
            }
            let (_, ns) = self.cycles(&trader, &mut Spans::off(), &mut Timings::default());
            if tracer.is_some_and(|t| t.snapshot().dropped() > 0) {
                return Err("pipeline tracer dropped events".into());
            }
            Ok(ns)
        })?;
        out.set("obs.recorder_overhead_pct", pct);

        // The trading task alone on one hardware thread.
        let shape = Shape {
            hw_threads: 1,
            tasks: 1,
            parts: ANALYSES.len(),
        };
        out.set("eventq.op_ns", probes::eventq_op_ns(shape, ctx.seed));
        out.set("readyq.op_ns", probes::readyq_op_ns(shape, ctx.seed));
        out.set(
            "overhead.model_ns",
            probes::overhead_model_ns(
                Topology::uniprocessor(),
                BackgroundLoad::NoLoad,
                shape,
                ctx.seed,
            ),
        );
        Ok(())
    }
}
