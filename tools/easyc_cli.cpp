// easyc — command-line carbon assessment for one system or a CSV fleet.
//
// Single system (the paper's <1 person-hour workflow):
//   easyc --name=mysystem --country=Germany --year=2024
//         --processor="AMD EPYC 9654 96C 2.4GHz" --accelerator="NVIDIA H100"
//         --nodes=256 --gpus=1024 --cpus=512 --memory-gb=196608
//         --memory-type=DDR5 --ssd-tb=3500 --cores=98304
//
// Fleet mode: --fleet=systems.csv with one system per row (columns match
// the flag names); emits a per-system CSV report to stdout.
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/coverage.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/scenario.hpp"
#include "analysis/sweep.hpp"
#include "analysis/sweep_shard.hpp"
#include "easyc/amortization.hpp"
#include "easyc/model.hpp"
#include "service/server.hpp"
#include "top500/generator.hpp"
#include "top500/import.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

namespace model = easyc::model;
namespace util = easyc::util;

void declare_flags(util::ArgParser& args) {
  args.add_flag("name", "system name");
  args.add_flag("country", "country (grid intensity lookup)");
  args.add_flag("region", "sub-national grid region (optional refinement)");
  args.add_flag("year", "operation year (EasyC metric 1)");
  args.add_flag("processor", "CPU model string as on Top500.org");
  args.add_flag("accelerator", "accelerator model string (omit if none)");
  args.add_flag("cores", "total cores");
  args.add_flag("rmax", "Rmax in TFlop/s");
  args.add_flag("power-kw", "measured HPL/system power in kW");
  args.add_flag("nodes", "# compute nodes (metric 2)");
  args.add_flag("gpus", "# GPUs (metric 3)");
  args.add_flag("cpus", "# CPU packages (metric 4)");
  args.add_flag("memory-gb", "total memory capacity, GB (metric 5)");
  args.add_flag("memory-type", "DDR3/DDR4/DDR5/HBM2/HBM2e/HBM3 (metric 6)");
  args.add_flag("ssd-tb", "flash capacity, TB (metric 7)");
  args.add_flag("utilization", "average utilization in (0,1] (optional)");
  args.add_flag("annual-kwh", "metered annual energy, kWh (optional)");
  args.add_flag("service-years", "service life for amortization (default 6)");
  args.add_flag("approximate-accelerators",
                "substitute mainstream GPUs for unknown accelerators",
                /*takes_value=*/false);
  args.add_flag("fleet", "CSV file of systems (columns = flag names)");
  args.add_flag("top500",
                "official Top500.org CSV export: audit it, then report "
                "EasyC coverage and totals over the list");
  args.add_flag("scenario",
                "registered scenario to assess a --top500 list under "
                "(see --list-scenarios; default: baseline)");
  args.add_flag("list-scenarios", "list registered scenarios and exit",
                /*takes_value=*/false);
  args.add_flag("turnover",
                "run the multi-edition assessment engine over a simulated "
                "list history and report measured growth + cache stats",
                /*takes_value=*/false);
  args.add_flag("editions",
                "list editions for --turnover (default 8, minimum 2)");
  args.add_flag("cache-file",
                "persist the assessment memo cache across --turnover and "
                "--sweep runs: warm-start from this snapshot file when it "
                "exists and save it back after the run");
  args.add_flag("sweep",
                "expand an axis spec into a scenario grid and assess every "
                "derived scenario over the Nov-2024 list; e.g. "
                "\"aci=25:600:6;pue=1.1,1.3,1.6;util=0.5:0.95:4;life=4,6,8;"
                "mc=100@42\" (axes: aci, pue, fab, util, life)");
  args.add_flag("sweep-base",
                "registered scenario the sweep derives from "
                "(default: enhanced; see --list-scenarios)");
  args.add_flag("threads",
                "worker threads for --sweep (default: hardware concurrency); "
                "results are bit-identical for every value");
  args.add_flag("sweep-batch",
                "derived scenarios per engine block for --sweep (default "
                "64; bounds memory, never changes results)");
  args.add_flag("cells-out",
                "write one row per sweep cell to this file (byte-identical "
                "for any --threads/--sweep-batch/cache state; column schema "
                "in README.md)");
  args.add_flag("cells-format",
                "cell export format(s) for --cells-out: csv (default), bin "
                "(EZCELLS columnar binary; decode with easyc_cells_decode), "
                "or csv,bin to write <file>.csv and <file>.bin");
  args.add_flag("sweep-records",
                "assess only the first N generated systems (default: the "
                "full simulated list); makes million-cell grids cheap to "
                "exercise");
  args.add_flag("sweep-refine",
                "adaptive refinement K@R: after the coarse grid, densify "
                "the K axes with the largest tornado swings around their "
                "steepest segments, for R rounds (e.g. 2@2); per-round "
                "cache stats go to stderr");
  args.add_flag("sweep-shard",
                "worker mode i/N (1-based): assess only this shard of the "
                "expanded grid and write an EZPART partial to --shard-out "
                "instead of a report; N workers plus --sweep-merge "
                "reproduce the single-process report byte-for-byte");
  args.add_flag("shard-out",
                "EZPART partial output file for --sweep-shard (format in "
                "README.md)");
  args.add_flag("sweep-merge",
                "merge a comma-separated list of EZPART partials (one per "
                "shard, any order) into the sweep report; the --sweep/"
                "--sweep-base/--sweep-records flags must repeat the "
                "workers' spec, and mismatched partials are rejected");
  args.add_flag("help", "show usage", /*takes_value=*/false);
}

/// Scenarios the CLI knows about: the same registry the server serves
/// from (paper + what-ifs + the full-knowledge bound), so a scenario
/// name means the same thing in a one-shot and in a daemon request.
easyc::analysis::ScenarioSet cli_scenarios() {
  return easyc::service::default_scenarios();
}

model::Inputs inputs_from_getter(
    const std::function<std::optional<std::string>(const std::string&)>&
        get) {
  model::Inputs in;
  auto str = [&](const char* key) { return get(key).value_or(""); };
  auto num = [&](const char* key) -> std::optional<double> {
    auto v = get(key);
    if (!v || util::trim(*v).empty()) return std::nullopt;
    auto d = util::parse_double(*v);
    if (!d) throw util::ParseError(std::string(key) + ": not a number");
    return d;
  };
  in.name = str("name").empty() ? "unnamed-system" : str("name");
  in.country = str("country");
  in.region = str("region");
  in.processor = str("processor");
  in.accelerator = str("accelerator");
  if (auto v = num("year")) in.operation_year = static_cast<int>(*v);
  if (auto v = num("cores")) in.total_cores = static_cast<long long>(*v);
  if (auto v = num("rmax")) in.rmax_tflops = *v;
  if (auto v = num("power-kw")) in.power_kw = *v;
  if (auto v = num("nodes")) in.num_nodes = static_cast<long long>(*v);
  if (auto v = num("gpus")) in.num_gpus = static_cast<long long>(*v);
  if (auto v = num("cpus")) in.num_cpus = static_cast<long long>(*v);
  if (auto v = num("memory-gb")) in.memory_gb = *v;
  if (auto s = get("memory-type"); s && !util::trim(*s).empty()) {
    in.memory_type = *s;
  }
  if (auto v = num("ssd-tb")) in.ssd_tb = *v;
  if (auto v = num("utilization")) in.utilization = *v;
  if (auto v = num("annual-kwh")) in.annual_energy_kwh = *v;
  return in;
}

int assess_single(const model::Inputs& in, const model::EasyCOptions& opt,
                  double service_years) {
  const model::EasyCModel easyc(opt);
  const auto a = easyc.assess(in);

  std::printf("system: %s  (%d of 9 EasyC metrics provided)\n",
              in.name.c_str(), 9 - in.num_missing());
  if (a.operational.ok()) {
    const auto& op = a.operational.value();
    std::printf("operational: %s MT CO2e/yr  [%s, PUE %.2f, %s g/kWh]\n",
                util::format_double(op.mt_co2e, 1).c_str(),
                model::energy_path_name(op.path).c_str(), op.pue,
                util::format_double(op.aci_g_kwh, 0).c_str());
  } else {
    std::printf("operational: no estimate — %s\n",
                a.operational.reasons_joined().c_str());
  }
  if (a.embodied.ok()) {
    const auto& b = a.embodied.value();
    std::printf("embodied:    %s MT CO2e  [cpu %s, gpu %s, dram %s, flash "
                "%s, platform %s, fabric %s]\n",
                util::format_double(b.total_mt, 1).c_str(),
                util::format_double(b.cpu_mt, 1).c_str(),
                util::format_double(b.gpu_mt, 1).c_str(),
                util::format_double(b.memory_mt, 1).c_str(),
                util::format_double(b.storage_mt, 1).c_str(),
                util::format_double(b.platform_mt, 1).c_str(),
                util::format_double(b.interconnect_mt, 1).c_str());
  } else {
    std::printf("embodied:    no estimate — %s\n",
                a.embodied.reasons_joined().c_str());
  }
  if (a.operational.ok() && a.embodied.ok()) {
    const auto f = model::annualize(a.operational.value(),
                                    a.embodied.value(), {service_years});
    std::printf("annualized:  %s MT CO2e/yr over %.0f-year life "
                "(embodied share %.0f%%)\n",
                util::format_double(f.total_mt, 1).c_str(), service_years,
                f.embodied_share * 100);
  }
  return (a.operational.ok() || a.embodied.ok()) ? 0 : 2;
}

int assess_fleet(const std::string& path, const model::EasyCOptions& opt) {
  const auto table = util::CsvTable::read_file(path);
  const model::EasyCModel easyc(opt);

  util::CsvTable out({"name", "operational_mt_per_yr", "energy_path",
                      "embodied_mt", "notes"});
  for (size_t row = 0; row < table.num_rows(); ++row) {
    auto get = [&](const std::string& key) -> std::optional<std::string> {
      auto col = table.column(key);
      if (!col) return std::nullopt;
      return table.cell(row, *col);
    };
    const auto in = inputs_from_getter(get);
    const auto a = easyc.assess(in);
    out.add_row(
        {in.name,
         a.operational.ok()
             ? util::format_double(a.operational.value().mt_co2e, 2)
             : "",
         a.operational.ok()
             ? model::energy_path_name(a.operational.value().path)
             : "",
         a.embodied.ok()
             ? util::format_double(a.embodied.value().total_mt, 2)
             : "",
         a.operational.ok() && a.embodied.ok()
             ? ""
             : (a.operational.reasons_joined() + " " +
                a.embodied.reasons_joined())});
  }
  std::fputs(out.to_string().c_str(), stdout);
  return 0;
}

int assess_top500_export(const std::string& path,
                         const easyc::analysis::ScenarioSpec& spec) {
  const auto imported = easyc::top500::import_top500_file(path);
  std::printf("imported %d systems (%d with power, %d accelerated)\n",
              imported.stats.systems, imported.stats.with_power,
              imported.stats.with_accelerator);
  for (const auto& w : imported.stats.warnings) {
    std::printf("  warn: %s\n", w.c_str());
  }

  const auto audit = easyc::analysis::audit_records(imported.records);
  std::fputs(easyc::analysis::render_audit(audit).c_str(), stdout);
  if (audit.errors > 0) {
    std::fprintf(stderr, "refusing to assess a structurally broken list\n");
    return 2;
  }

  std::printf("scenario: %s — %s\n", spec.name.c_str(),
              spec.description.c_str());
  const auto results =
      easyc::analysis::assess_one_scenario(imported.records, spec);
  std::printf("coverage: operational %d/%d, embodied %d/%d\n",
              results.coverage.operational, results.coverage.total,
              results.coverage.embodied, results.coverage.total);
  std::printf("totals over covered systems: %s MT CO2e/yr operational, "
              "%s MT embodied\n",
              util::format_double(results.total(true), 0).c_str(),
              util::format_double(results.total(false), 0).c_str());
  std::printf("annualized over a %.0f-year service life: %s MT CO2e/yr\n",
              spec.service_years,
              util::format_double(results.annualized_total_mt(), 0).c_str());
  return 0;
}

// Cache/warm-start diagnostics go to stderr so the report on stdout
// stays byte-identical between cold and warm-started runs (CI diffs
// it). The server produces the same lines the CLI historically
// printed; this just routes them.
void print_notes(const std::vector<std::string>& notes) {
  for (const std::string& note : notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
}

// A --turnover/--sweep run is the degenerate server session: one
// request, executed on a just-constructed AssessmentServer, payload to
// stdout and notes to stderr, snapshot, exit. Daemon and one-shot
// share every line of engine lifecycle (warm-start, scenario
// registry, request execution, snapshot-on-exit) by construction.
int run_one_shot(easyc::service::AssessmentServer& server,
                 const easyc::service::Request& request,
                 easyc::analysis::SweepCellSink* sink = nullptr) {
  const easyc::service::Reply reply = server.execute(request, sink);
  if (!reply.ok) {
    std::fprintf(stderr, "error: %s", reply.payload.c_str());
    return 1;
  }
  std::fputs(reply.payload.c_str(), stdout);
  print_notes(reply.notes);
  return 0;
}

int run_turnover(int editions, const std::optional<std::string>& cache_file) {
  if (editions < 2) {
    throw util::Error("--editions must be at least 2 (growth needs a cycle)");
  }
  if (editions > easyc::service::kMaxTurnoverEditions) {
    throw util::Error(
        "--editions must be at most " +
        std::to_string(easyc::service::kMaxTurnoverEditions));
  }
  easyc::service::ServerOptions options;
  options.admission = 1;
  options.cache_file = cache_file;
  easyc::service::AssessmentServer server(options);
  print_notes(server.warm_start());

  easyc::service::Request request;
  request.verb = easyc::service::Verb::kTurnover;
  request.id = "cli";
  request.editions = editions;
  const int rc = run_one_shot(server, request);
  print_notes(server.save_snapshot());
  return rc;
}

// One --cells-out export file: its stream, its sink, and enough to
// report/close it. bin sinks need finish() before the close check.
struct CellExport {
  std::string path;
  bool binary = false;
  std::ofstream stream;
  std::unique_ptr<easyc::analysis::SweepCellSink> sink;
};

// Counts the cells a sweep streams (the exported row count) while
// forwarding them to the real export sink, if any.
struct CountingSink : easyc::analysis::SweepCellSink {
  easyc::analysis::SweepCellSink* inner = nullptr;
  size_t rows = 0;
  void cell(size_t round, size_t index,
            const easyc::analysis::SweepCell& c) override {
    ++rows;
    if (inner) inner->cell(round, index, c);
  }
};

// Validated --cells-format list ("csv" default when --cells-out is
// set); empty when there is no export.
std::vector<std::string> parse_cell_formats(
    const std::optional<std::string>& cells_out,
    const std::optional<std::string>& cells_format) {
  std::vector<std::string> formats;
  if (cells_format) {
    if (!cells_out) {
      throw util::Error("--cells-format requires --cells-out");
    }
    for (const auto& raw : util::split(*cells_format, ',')) {
      const std::string f(util::trim(raw));
      if (f != "csv" && f != "bin") {
        throw util::Error("--cells-format wants csv, bin, or csv,bin; "
                          "got '" + f + "'");
      }
      for (const auto& seen : formats) {
        if (seen == f) {
          throw util::Error("--cells-format lists '" + f + "' twice");
        }
      }
      formats.push_back(f);
    }
  } else if (cells_out) {
    formats.push_back("csv");
  }
  return formats;
}

// The open --cells-out files plus the single sink the sweep/merge
// feeds. sink() is computed on demand so the struct stays movable.
struct CellExportSet {
  std::vector<std::unique_ptr<CellExport>> exports;
  std::optional<easyc::analysis::TeeCellSink> tee;

  easyc::analysis::SweepCellSink* sink() {
    if (tee) return &*tee;
    return exports.size() == 1 ? exports.front()->sink.get() : nullptr;
  }
};

CellExportSet open_cell_exports(const std::optional<std::string>& cells_out,
                                const std::vector<std::string>& formats) {
  CellExportSet set;
  for (const auto& f : formats) {
    auto ex = std::make_unique<CellExport>();
    ex->binary = (f == "bin");
    // One format writes exactly --cells-out; two write <file>.csv and
    // <file>.bin alongside each other.
    ex->path = formats.size() == 1 ? *cells_out : *cells_out + "." + f;
    ex->stream.open(ex->path, std::ios::binary);
    if (!ex->stream) {
      throw util::Error("cannot open --cells-out file: " + ex->path);
    }
    if (ex->binary) {
      ex->sink = std::make_unique<easyc::analysis::BinaryCellSink>(ex->stream);
    } else {
      ex->sink = std::make_unique<easyc::analysis::CsvCellSink>(ex->stream);
    }
    set.exports.push_back(std::move(ex));
  }
  if (set.exports.size() > 1) {
    std::vector<easyc::analysis::SweepCellSink*> sinks;
    for (const auto& ex : set.exports) sinks.push_back(ex->sink.get());
    set.tee.emplace(sinks);
  }
  return set;
}

void finish_cell_exports(CellExportSet& set, size_t rows) {
  for (const auto& ex : set.exports) {
    if (auto* bin =
            dynamic_cast<easyc::analysis::BinaryCellSink*>(ex->sink.get())) {
      bin->finish();
    }
    ex->stream.close();
    if (!ex->stream) {
      throw util::Error("write failed for --cells-out file: " + ex->path);
    }
    std::fprintf(stderr, "wrote %zu cell rows to %s\n", rows,
                 ex->path.c_str());
  }
}

int run_sweep(const std::string& axis_text, const std::string& base_name,
              std::optional<long long> threads,
              std::optional<long long> batch,
              const std::optional<std::string>& cache_file,
              const std::optional<std::string>& cells_out,
              const std::optional<std::string>& cells_format,
              std::optional<long long> sweep_records,
              const std::optional<std::string>& refine_text) {
  easyc::service::ServerOptions options;
  if (threads) {
    if (*threads < 1) throw util::Error("--threads must be at least 1");
    options.threads = static_cast<unsigned>(*threads);
  }
  options.admission = 1;
  options.cache_file = cache_file;

  easyc::service::Request request;
  request.verb = easyc::service::Verb::kSweep;
  request.id = "cli";
  request.axes = axis_text;
  request.base = base_name;
  // Validate every flag before touching --cells-out: opening that file
  // truncates it, and a typo'd --sweep-refine must not cost the user a
  // previous run's export.
  if (refine_text) request.refine = easyc::service::parse_refine(*refine_text);

  const std::vector<std::string> formats =
      parse_cell_formats(cells_out, cells_format);

  if (sweep_records) {
    if (*sweep_records < 1) {
      throw util::Error("--sweep-records must be at least 1");
    }
    request.records = static_cast<size_t>(*sweep_records);
  }
  if (batch) {
    if (*batch < 1) throw util::Error("--sweep-batch must be at least 1");
    request.batch = static_cast<size_t>(*batch);
  }

  easyc::service::AssessmentServer server(options);
  // Re-parse the axis spec up front (the server would reject it too,
  // but only after --cells-out is already truncated).
  easyc::analysis::SweepSpec::parse(axis_text,
                                    server.scenarios().at(base_name));
  print_notes(server.warm_start());

  CellExportSet exports = open_cell_exports(cells_out, formats);

  // The server streams every cell through the counter (and on to the
  // export sinks); its reply payload is the deterministic report and
  // its notes carry the cache-state-dependent diagnostics (per-round
  // hit rates, the cumulative cache line) that belong on stderr.
  CountingSink counter;
  counter.inner = exports.sink();
  const easyc::service::Reply reply = server.execute(request, &counter);
  if (!reply.ok) {
    std::fprintf(stderr, "error: %s", reply.payload.c_str());
    return 1;
  }

  finish_cell_exports(exports, counter.rows);

  std::fputs(reply.payload.c_str(), stdout);
  print_notes(reply.notes);
  print_notes(server.save_snapshot());
  return 0;
}

// --sweep-shard worker: assess one contiguous shard of the expanded
// grid and ship an EZPART partial (plus, with --cache-file, a cache
// snapshot the merge process can re-absorb). No report on stdout —
// the partial IS the output.
int run_shard_worker(const std::string& axis_text,
                     const std::string& base_name,
                     const std::string& shard_text,
                     const std::string& out_path,
                     std::optional<long long> threads,
                     std::optional<long long> batch,
                     const std::optional<std::string>& cache_file,
                     std::optional<long long> sweep_records) {
  const auto ref = easyc::analysis::ShardRef::parse(shard_text);

  easyc::service::ServerOptions options;
  if (threads) {
    if (*threads < 1) throw util::Error("--threads must be at least 1");
    options.threads = static_cast<unsigned>(*threads);
  }
  options.admission = 1;
  options.cache_file = cache_file;

  easyc::analysis::SweepEngine::Options opt;
  if (batch) {
    if (*batch < 1) throw util::Error("--sweep-batch must be at least 1");
    opt.batch_size = static_cast<size_t>(*batch);
  }
  opt.retain_cells = false;

  easyc::service::AssessmentServer server(options);
  const easyc::analysis::SweepSpec spec = easyc::analysis::SweepSpec::parse(
      axis_text, server.scenarios().at(base_name));
  print_notes(server.warm_start());

  // Same truncation rule as the server's sweep path: the merge rejects
  // partials whose records fingerprint disagrees, so every worker must
  // apply --sweep-records identically.
  const std::vector<easyc::top500::SystemRecord>* records = &server.records();
  std::vector<easyc::top500::SystemRecord> limited;
  if (sweep_records) {
    if (*sweep_records < 1) {
      throw util::Error("--sweep-records must be at least 1");
    }
    if (static_cast<size_t>(*sweep_records) < records->size()) {
      limited.assign(records->begin(),
                     records->begin() + static_cast<long>(*sweep_records));
      records = &limited;
    }
  }

  opt.engine = &server.engine();
  easyc::analysis::SweepEngine sweep(opt);

  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw util::Error("cannot open --shard-out file: " + out_path);
  const size_t n =
      easyc::analysis::run_sweep_shard(sweep, *records, spec, ref, out);
  out.close();
  if (!out) {
    throw util::Error("write failed for --shard-out file: " + out_path);
  }
  std::fprintf(stderr, "shard %s: %zu of %zu cells -> %s\n",
               ref.to_string().c_str(), n, spec.total_cells(),
               out_path.c_str());
  print_notes(server.save_snapshot());
  return 0;
}

// --sweep-merge: combine one complete set of EZPART partials into the
// report (and optional --cells-out streams) the single-process run
// produces. Pure file work — no engine, no assessment.
int run_sweep_merge(const std::string& axis_text,
                    const std::string& base_name,
                    const std::string& merge_text,
                    std::optional<long long> sweep_records,
                    const std::optional<std::string>& cells_out,
                    const std::optional<std::string>& cells_format) {
  std::vector<std::string> paths;
  for (const auto& raw : util::split(merge_text, ',')) {
    const std::string p(util::trim(raw));
    if (!p.empty()) paths.push_back(p);
  }
  if (paths.empty()) {
    throw util::Error(
        "--sweep-merge wants a comma-separated list of EZPART partials");
  }

  const auto set = cli_scenarios();
  const easyc::analysis::SweepSpec spec =
      easyc::analysis::SweepSpec::parse(axis_text, set.at(base_name));

  // The same simulated list every AssessmentServer constructs — the
  // partials' records fingerprint is checked against exactly this.
  std::vector<easyc::top500::SystemRecord> records =
      easyc::top500::generate_records();
  if (sweep_records) {
    if (*sweep_records < 1) {
      throw util::Error("--sweep-records must be at least 1");
    }
    if (static_cast<size_t>(*sweep_records) < records.size()) {
      records.resize(static_cast<size_t>(*sweep_records));
    }
  }

  const std::vector<std::string> formats =
      parse_cell_formats(cells_out, cells_format);
  CellExportSet exports = open_cell_exports(cells_out, formats);
  CountingSink counter;
  counter.inner = exports.sink();

  easyc::analysis::MergeOptions merge_opt;
  merge_opt.sink = &counter;
  const easyc::analysis::SweepReport report =
      easyc::analysis::merge_sweep_partials(paths, records, spec, merge_opt);

  finish_cell_exports(exports, counter.rows);
  std::fprintf(stderr, "merged %zu partials covering %zu cells\n",
               paths.size(), report.total_cells);
  std::fputs(easyc::analysis::render_sweep_report(report).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "easyc — carbon-footprint assessment from a few key metrics "
      "(EasyC model)");
  declare_flags(args);
  // Every input is a named flag; a bare argument is always a mistake
  // (e.g. a missing "--" or an unquoted value) and must not be
  // silently dropped.
  args.allow_positional(false);
  try {
    args.parse(argc, argv);
    if (args.has("help") || argc == 1) {
      std::fputs(args.usage(argv[0]).c_str(), stdout);
      return 0;
    }
    if (args.has("list-scenarios")) {
      const auto set = cli_scenarios();
      for (const auto& s : set.specs()) {
        std::printf("%-36s %s\n", s.name.c_str(), s.description.c_str());
      }
      return 0;
    }
    // The simulated-history modes take a closed flag set; any other
    // flag on their command line would otherwise be silently ignored
    // (e.g. --sweep ... --service-years 4 running with the base
    // scenario's lifetime), which is exactly the failure mode strict
    // parsing exists to prevent.
    auto require_only = [&](const char* mode,
                            std::initializer_list<const char*> allowed) {
      for (const auto& name : args.given()) {
        bool ok = false;
        for (const char* a : allowed) ok = ok || name == a;
        if (!ok) {
          throw util::Error("--" + name + " does not apply to --" + mode +
                            " runs");
        }
      }
    };
    if (auto sweep_spec = args.get("sweep")) {
      const std::string base = args.get("sweep-base").value_or(
          std::string(easyc::analysis::scenarios::kEnhancedName));
      if (args.has("sweep-shard") && args.has("sweep-merge")) {
        throw util::Error(
            "--sweep-shard (produce a partial) conflicts with --sweep-merge "
            "(combine partials); run them as separate steps");
      }
      if (auto shard = args.get("sweep-shard")) {
        require_only("sweep-shard",
                     {"sweep", "sweep-base", "sweep-shard", "shard-out",
                      "threads", "sweep-batch", "cache-file",
                      "sweep-records"});
        auto out = args.get("shard-out");
        if (!out) {
          throw util::Error("--sweep-shard needs --shard-out=<partial file>");
        }
        return run_shard_worker(*sweep_spec, base, *shard, *out,
                                args.get_int("threads"),
                                args.get_int("sweep-batch"),
                                args.get("cache-file"),
                                args.get_int("sweep-records"));
      }
      if (auto merge = args.get("sweep-merge")) {
        require_only("sweep-merge",
                     {"sweep", "sweep-base", "sweep-merge", "sweep-records",
                      "cells-out", "cells-format"});
        return run_sweep_merge(*sweep_spec, base, *merge,
                               args.get_int("sweep-records"),
                               args.get("cells-out"),
                               args.get("cells-format"));
      }
      require_only("sweep",
                   {"sweep", "sweep-base", "threads", "sweep-batch",
                    "cache-file", "cells-out", "cells-format",
                    "sweep-records", "sweep-refine"});
      return run_sweep(*sweep_spec, base,
                       args.get_int("threads"), args.get_int("sweep-batch"),
                       args.get("cache-file"), args.get("cells-out"),
                       args.get("cells-format"),
                       args.get_int("sweep-records"),
                       args.get("sweep-refine"));
    }
    for (const char* sweep_only : {"sweep-base", "threads", "sweep-batch",
                                   "cells-out", "cells-format",
                                   "sweep-records", "sweep-refine",
                                   "sweep-shard", "shard-out",
                                   "sweep-merge"}) {
      if (args.has(sweep_only)) {
        throw util::Error(std::string("--") + sweep_only +
                          " applies only to --sweep runs");
      }
    }
    if (args.has("turnover")) {
      require_only("turnover",
                   {"turnover", "editions", "cache-file"});
      return run_turnover(
          static_cast<int>(args.get_double("editions").value_or(8.0)),
          args.get("cache-file"));
    }
    if (args.has("editions")) {
      throw util::Error("--editions applies only to --turnover runs");
    }
    if (args.has("cache-file")) {
      throw util::Error(
          "--cache-file applies only to --turnover and --sweep runs");
    }
    model::EasyCOptions opt;
    if (args.has("approximate-accelerators")) {
      opt.embodied.accelerator_policy =
          model::AcceleratorPolicy::kApproximateWithMainstreamGpu;
    }
    if (auto export_path = args.get("top500")) {
      // --approximate-accelerators is shorthand for tweaking the default
      // scenario; combined with an explicit --scenario it would silently
      // contradict the scenario's declared policy.
      if (args.has("scenario") && args.has("approximate-accelerators")) {
        throw util::Error(
            "--approximate-accelerators conflicts with --scenario; pick a "
            "scenario whose policy matches (see --list-scenarios)");
      }
      const auto set = cli_scenarios();
      auto spec = set.at(args.get("scenario").value_or(
          std::string(easyc::analysis::scenarios::kBaselineName)));
      if (args.has("approximate-accelerators")) {
        spec.accelerator_policy =
            model::AcceleratorPolicy::kApproximateWithMainstreamGpu;
        spec.description +=
            " (accelerator approximation forced by "
            "--approximate-accelerators)";
      }
      return assess_top500_export(*export_path, spec);
    }
    if (args.has("scenario")) {
      throw util::Error(
          "--scenario applies only to --top500 lists; fleet/single-system "
          "modes take explicit flags instead");
    }
    if (auto fleet = args.get("fleet")) {
      return assess_fleet(*fleet, opt);
    }
    const auto in = inputs_from_getter(
        [&](const std::string& key) { return args.get(key); });
    return assess_single(in, opt,
                         args.get_double("service-years").value_or(6.0));
  } catch (const util::ParseError& e) {
    std::fprintf(stderr, "error: %s\nrun %s --help for usage\n", e.what(),
                 argv[0]);
    return 1;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
