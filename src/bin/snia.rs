//! `snia` — command-line interface to the snia-repro toolkit.
//!
//! ```text
//! snia dataset   --samples 200 --seed 1 --out specs.json   generate dataset specs
//! snia inspect   --sample 0   [--samples N --seed S]       describe one sample
//! snia render    --sample 0 --obs 5 --out prefix           write ref/obs/diff PGMs
//! snia classify  [--samples N --seed S --epochs E]         train + evaluate the classifier
//! snia serve     --model bundle/ [--input req.jsonl]       score JSONL requests
//! snia help                                                this text
//! ```

use std::fs;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use snia_repro::core::classifier::LightCurveClassifier;
use snia_repro::core::config::{integer, positive, text, ConfigError, Sources, DEFAULT_SEED};
use snia_repro::core::eval::auc;
use snia_repro::core::resilience::{FaultPlan, Resilience};
use snia_repro::core::train::{
    classifier_scores, feature_matrix, train_classifier_resilient, ClassifierTrainConfig,
};
use snia_repro::dataset::{split_indices, Dataset, DatasetConfig};
use snia_repro::serve::{serve_lines, Engine, EngineConfig, ModelBundle};

const HELP: &str = "snia — single-epoch supernova classification toolkit

USAGE:
    snia <command> [--flag value ...]
    A malformed or unknown flag exits with code 2 before any work.

COMMANDS:
    dataset    generate dataset sample specs as JSON
                 --samples <n>   number of samples     (default 200)
                 --seed <n>      master seed           (default 20170101)
                 --threads <n>   generation threads    (default 1; any
                                 thread count yields bit-identical output)
                 --out <path>    output JSON file      (default specs.json)
    inspect    describe one sample's host, parameters and campaign
                 --sample <i>    sample index          (default 0)
                 --samples/--seed as above
    render     write reference/observation/difference PGM images
                 --sample <i>    sample index          (default 0)
                 --obs <j>       observation index     (default 0)
                 --out <prefix>  file prefix           (default sample)
                 --samples/--seed as above
    classify   train the single-epoch classifier and report test AUC
                 --epochs <n>    training epochs       (default 25)
                 --hidden <n>    hidden units          (default 100)
                 --threads <n>   data-parallel threads (default 1)
                 --resume <dir>  checkpoint directory: save every epoch and
                                 resume from the latest checkpoint on restart
                                 (also via SNIA_RESUME)
                 --fault <spec>  inject faults for resilience testing, e.g.
                                 nan_loss@step=40,panic_worker@epoch=2,kill@epoch=3
                                 (also via SNIA_FAULT)
                 --render-cache <dir>     cache preprocessed stamps on disk;
                                          hits are bit-identical to fresh
                                          renders (also via SNIA_RENDER_CACHE)
                 --export-bundle <dir>    save the trained model as a serve
                                          bundle (manifest.json + weights.snia)
                 --export-requests <path> write the test split as JSONL serve
                                          requests (one {\"id\",\"features\"} per line)
                 --samples/--seed as above
    serve      score JSONL requests through the batched inference engine
                 --model <dir>   bundle directory      (required)
                 --input <path>  request JSONL, - for stdin  (default -)
                 --out <path>    scored JSONL, - for stdout  (default -)
                 --workers <n>   worker threads        (default 1)
                 --max-batch <n> flush threshold       (default 32)
                 --max-wait-ms <n>  latency budget     (default 2)
                 --queue-cap <n> backpressure bound    (default 1024)
    export     write all light curves in SNPCC-like text format
                 --out <path>    output file           (default lightcurves.dat)
                 --samples/--seed as above
    help       print this text
";

/// A command's failure: a [`ConfigError`] (bad input, exit 2) or a failed
/// run (exit 1).
type Outcome = Result<(), Box<dyn std::error::Error>>;

/// Reads `--samples`, `--seed` and `--threads`: the dataset to generate and
/// the threads to use.
fn dataset_flags(s: &mut Sources) -> Result<(DatasetConfig, usize), ConfigError> {
    let n = s.get(&["--samples"], integer)?.unwrap_or(200);
    let seed = s.get(&["--seed"], integer)?.unwrap_or(DEFAULT_SEED);
    let threads = s.get(&["--threads"], positive)?.unwrap_or(1);
    let cfg = DatasetConfig {
        n_samples: n,
        catalog_size: (n * 4).max(200),
        seed,
    };
    Ok((cfg, threads))
}

fn cmd_dataset(mut s: Sources) -> Outcome {
    let (data, threads) = dataset_flags(&mut s)?;
    let out: String = s.get(&["--out"], text)?.unwrap_or("specs.json".into());
    s.finish()?;
    let ds = Dataset::generate_with_threads(&data, threads);
    let json = serde_json::to_string(&ds.samples).map_err(|e| e.to_string())?;
    fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} sample specs ({} SNIa / {} contaminants) to {out}",
        ds.len(),
        ds.ia_indices().len(),
        ds.len() - ds.ia_indices().len()
    );
    Ok(())
}

fn cmd_inspect(mut s: Sources) -> Outcome {
    let (data, threads) = dataset_flags(&mut s)?;
    let i = s.get(&["--sample"], integer)?.unwrap_or(0);
    s.finish()?;
    let ds = Dataset::generate_with_threads(&data, threads);
    let s = ds
        .samples
        .get(i)
        .ok_or_else(|| format!("sample {i} out of range (dataset has {} samples)", ds.len()))?;
    println!("sample {i}: {} at z = {:.3}", s.sn.sn_type, s.sn.redshift);
    println!(
        "  stretch {:.3}, colour {:+.3}, grey offset {:+.3}, peak MJD {:.1}",
        s.sn.stretch, s.sn.color, s.sn.mag_offset, s.sn.peak_mjd
    );
    println!(
        "  host galaxy #{}: i = {:.2} mag, R_eff = {:.2}\", Sérsic n = {:.1}",
        s.galaxy.id, s.galaxy.mag_i, s.galaxy.r_eff_arcsec, s.galaxy.sersic_index
    );
    let lc = s.light_curve();
    println!(
        "  campaign ({} observations):",
        s.schedule.observations.len()
    );
    for &(band, mjd) in &s.schedule.observations {
        println!(
            "    MJD {:9.1}  {}  mag {:6.2}",
            mjd,
            band,
            lc.mag(band, mjd)
        );
    }
    Ok(())
}

fn cmd_render(mut s: Sources) -> Outcome {
    let (data, threads) = dataset_flags(&mut s)?;
    let i = s.get(&["--sample"], integer)?.unwrap_or(0);
    let j = s.get(&["--obs"], integer)?.unwrap_or(0);
    let prefix: String = s.get(&["--out"], text)?.unwrap_or("sample".into());
    s.finish()?;
    let ds = Dataset::generate_with_threads(&data, threads);
    let s = ds
        .samples
        .get(i)
        .ok_or_else(|| format!("sample {i} out of range"))?;
    if j >= s.schedule.observations.len() {
        return Err(format!(
            "observation {j} out of range (sample has {})",
            s.schedule.observations.len()
        )
        .into());
    }
    let pair = s.flux_pair(j);
    let diff = pair.observation.subtract(&pair.reference);
    let hi = pair.observation.max().max(1.0);
    for (name, img, lo, top) in [
        ("reference", &pair.reference, -1.0, hi),
        ("observation", &pair.observation, -1.0, hi),
        ("difference", &diff, -hi / 4.0, hi / 4.0),
    ] {
        let path = format!("{prefix}_{name}.pgm");
        fs::write(&path, img.to_pgm(lo, top)).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "band {}, MJD {:.1}, true mag {:.2}",
        pair.band, pair.mjd, pair.true_mag
    );
    Ok(())
}

fn cmd_classify(mut s: Sources) -> Outcome {
    let (data, threads) = dataset_flags(&mut s)?;
    let epochs = s.get(&["--epochs"], integer)?.unwrap_or(25);
    let hidden = s.get(&["--hidden"], integer)?.unwrap_or(100);
    let resume = s.get(&["--resume", "SNIA_RESUME"], text)?;
    let faults = s.get(&["--fault", "SNIA_FAULT"], FaultPlan::parse)?;
    let render_cache: Option<String> = s.get(&["--render-cache", "SNIA_RENDER_CACHE"], text)?;
    let export_bundle: Option<String> = s.get(&["--export-bundle"], text)?;
    let export_requests: Option<String> = s.get(&["--export-requests"], text)?;
    s.finish()?;
    if let Some(dir) = render_cache {
        snia_repro::dataset::cache::configure(Some(std::path::Path::new(&dir)))
            .map_err(|e| format!("cannot create render cache {dir}: {e}"))?;
    }
    let ds = Dataset::generate_with_threads(&data, threads);
    let seed = data.seed;
    let (tr, va, te) = split_indices(ds.len(), seed);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let (xe, _, labels) = feature_matrix(&ds, &te, 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A551F7);
    let mut clf = LightCurveClassifier::new(1, hidden, &mut rng);
    println!(
        "training {} parameters on {} examples for {} epochs...",
        clf.num_parameters(),
        xt.shape()[0],
        epochs
    );
    let res = Resilience::new(resume, faults.unwrap_or_default());
    let hist = train_classifier_resilient(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &ClassifierTrainConfig {
            epochs,
            batch_size: 64,
            lr: 3e-3,
            seed,
            threads,
        },
        &res,
    )
    .map_err(|e| e.to_string())?;
    match hist.last() {
        Some(last) => println!("val accuracy {:.3}", last.val_acc),
        None => println!("no epochs trained (epochs = 0)"),
    }
    let scores = classifier_scores(&mut clf, &xe);
    println!("single-epoch test AUC: {:.3}", auc(&scores, &labels));
    if let Some(dir) = export_bundle {
        ModelBundle::from_classifier(&clf)
            .save(&dir)
            .map_err(|e| format!("cannot export bundle to {dir}: {e}"))?;
        println!("exported model bundle to {dir}/");
    }
    if let Some(path) = export_requests {
        let dim = xe.shape()[1];
        let mut text = String::new();
        for (i, row) in xe.data().chunks(dim).enumerate() {
            let feats: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            text.push_str(&format!(
                "{{\"id\":{i},\"features\":[{}]}}\n",
                feats.join(",")
            ));
        }
        fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "wrote {} serve requests (test split) to {path}",
            xe.shape()[0]
        );
    }
    Ok(())
}

fn cmd_serve(mut s: Sources) -> Outcome {
    let dir: String = s
        .get(&["--model"], text)?
        .ok_or(ConfigError::MissingValue("--model"))?;
    let cfg = EngineConfig {
        max_batch: s.get(&["--max-batch"], positive)?.unwrap_or(32),
        max_wait: std::time::Duration::from_millis(
            s.get(&["--max-wait-ms"], integer)?.unwrap_or(2),
        ),
        queue_cap: s.get(&["--queue-cap"], positive)?.unwrap_or(1024),
        workers: s.get(&["--workers"], positive)?.unwrap_or(1),
    };
    let input: String = s.get(&["--input"], text)?.unwrap_or("-".into());
    let out: String = s.get(&["--out"], text)?.unwrap_or("-".into());
    s.finish()?;
    let bundle = ModelBundle::load(&dir).map_err(|e| format!("cannot load bundle {dir}: {e}"))?;
    let engine = Engine::from_bundle(&bundle, cfg).map_err(|e| e.to_string())?;
    let summary = {
        let stdin = std::io::stdin();
        let reader: Box<dyn std::io::BufRead> = if input == "-" {
            Box::new(stdin.lock())
        } else {
            let f = fs::File::open(&input).map_err(|e| format!("cannot open {input}: {e}"))?;
            Box::new(std::io::BufReader::new(f))
        };
        let mut writer: Box<dyn std::io::Write> = if out == "-" {
            Box::new(std::io::stdout().lock())
        } else {
            let f = fs::File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
            Box::new(std::io::BufWriter::new(f))
        };
        let summary = serve_lines(&engine, reader, &mut writer).map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        summary
    };
    engine.shutdown();
    eprintln!(
        "served {} requests in {:.3}s ({:.0} req/s, {} workers, max batch {})",
        summary.requests,
        summary.elapsed.as_secs_f64(),
        summary.requests_per_sec,
        cfg.workers,
        cfg.max_batch
    );
    Ok(())
}

fn cmd_export(mut s: Sources) -> Outcome {
    let (data, threads) = dataset_flags(&mut s)?;
    let out: String = s.get(&["--out"], text)?.unwrap_or("lightcurves.dat".into());
    s.finish()?;
    let ds = Dataset::generate_with_threads(&data, threads);
    let mut text = String::new();
    for s in &ds.samples {
        text.push_str(&snia_repro::dataset::export::to_snpcc(s));
        text.push('\n');
    }
    fs::write(&out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {} light curves to {out}", ds.len());
    Ok(())
}

fn run(args: &[String], env: &dyn Fn(&str) -> Option<String>) -> Outcome {
    let command = args.first().map(String::as_str).unwrap_or("help");
    let flags = Sources::new(args.iter().skip(1).cloned(), env)?;
    match command {
        "dataset" => cmd_dataset(flags),
        "inspect" => cmd_inspect(flags),
        "render" => cmd_render(flags),
        "classify" => cmd_classify(flags),
        "serve" => cmd_serve(flags),
        "export" => cmd_export(flags),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{HELP}").into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &|name| std::env::var(name).ok()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(if e.is::<ConfigError>() { 2 } else { 1 })
        }
    }
}
