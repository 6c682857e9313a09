//! Bench for the Table VII family: factored-form literal counting (the
//! MIS-II stand-in) on minimized encoded covers (std-only harness).

use espresso::factor::cover_factored_literals;
use espresso::{minimize, RunCtl};
use fsm::encode::encode;
use nova_bench::microbench::Harness;
use nova_core::driver::{run, Algorithm};

fn bench_factoring(h: &mut Harness) {
    let mut g = h.group("table7_factoring");
    for name in ["bbtas", "dk27", "train11"] {
        let b = fsm::benchmarks::by_name(name).expect("embedded");
        let r = run(&b.fsm, Algorithm::IHybrid, None).expect("ihybrid");
        let pla = encode(&b.fsm, &r.encoding);
        let min = minimize(&pla.on, &pla.dc);
        let ctl = RunCtl::unlimited();
        g.bench(&format!("quick_factor/{name}"), || {
            cover_factored_literals(&min, &ctl)
        });
    }
}

fn bench_mustang(h: &mut Harness) {
    let mut g = h.group("table7_mustang");
    for name in ["bbtas", "dk27", "train11"] {
        let b = fsm::benchmarks::by_name(name).expect("embedded");
        for alg in [Algorithm::MustangP, Algorithm::MustangN] {
            g.bench(&format!("{}/{name}", alg.name()), || run(&b.fsm, alg, None));
        }
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_factoring(&mut h);
    bench_mustang(&mut h);
}
