// The repository's benchmark (perfbench/README.md): the paper's query
// workloads run end to end through the engine's public API (Database,
// Engine, Database::ExecuteBatch), with every answer checked against the
// pairwise baseline engine. With --trace 1 the same traffic runs again with
// spans recorded around each call into a layer's public functions, and the
// result line carries per-layer metrics instead of end-to-end ones.
//
//   paper_bench --workload <lubm-analytic|lubm-param|dbpedia-snapshot>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--out-dir <dir>] [--commit <id>]
//
// The last line of standard output is the result object. Earlier lines hold
// the host context and a human-readable summary; progress goes to stderr.
// Exits 1 when any answer is wrong or any query fails, 2 on bad usage or a
// build without NDEBUG.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/pairwise_engine.h"
#include "bitmat/tp_loader.h"
#include "core/database.h"
#include "core/global_ids.h"
#include "harness.h"
#include "sparql/parser.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/dbpedia_gen.h"
#include "workload/lubm_gen.h"
#include "workload/query_sets.h"

namespace lbr::perfbench {
namespace {

// --- Workload shapes --------------------------------------------------------

// LUBM universities: 400 is table6_2_lubm at LBR_SCALE=10 (~681k triples,
// larger than CPU caches); 40 is its scale 1 (~68k triples, fits in cache).
constexpr uint32_t kAnalyticUniversities = 400;
constexpr uint32_t kParamUniversities = 40;
// Departments drawn per parameterized shape: the hot set a run's traffic
// rotates through (4 shapes x 32 = 128 distinct texts, each checked
// against the oracle before timing).
constexpr int kParamDepartments = 32;
// Requests per ExecuteBatch call, per pool slot.
constexpr int kParamBatchPerSlot = 8;
// The timed loop runs in segments, with set-up repeated before, between
// and after them, so the medians of set-up time (setup_s, ttfa_ms) sample
// the host across the whole run as the loop's metrics do. The loop keeps
// the database of the first set-up; later set-ups are dropped again.
constexpr int kLoopSegments = 3;
// Set-up repetitions at each of the kLoopSegments + 1 points (about 10 s,
// 1.5 s and 1.5 s of set-up per run).
constexpr int kAnalyticSetups = 2;
constexpr int kParamSetups = 4;
constexpr int kSnapshotSetups = 6;
// Traced run: paired full / no-prune timings per query id, and parses per
// distinct text.
constexpr int kPrunePairs = 7;
constexpr int kParseReps = 5;

// Query ids that get per-id per-layer metrics (join.ms.Q3, ...). An id a
// workload does not run reports 0.
const char* const kTraceIds[] = {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "dept"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

/// One distinct query text of a workload.
struct Item {
  std::string id;  ///< Query id: "Q1".."Q6" or "dept".
  std::string text;
  Digest oracle;  ///< PairwiseEngine's answer over decoded terms.
  /// The same answer over the measured database's global ids, and the
  /// engine's column order, learned by Anchor().
  Digest raw;
  std::vector<uint64_t> var_hashes;
};

/// A traced execution, in seconds since the trace epoch.
struct Exec {
  uint32_t item = 0;
  double start = 0;
  double first_row = 0;  ///< Equals `end` when no row was delivered.
  double end = 0;
  double queue_wait = 0;
  bool shed = false;
  QueryStats stats;
};

/// What a timed loop leaves behind. Latency is what the request's client
/// waited: on lubm-param, queue wait plus engine time. The untraced record
/// is 8 bytes per query, so it barely shows in peak_rss_mb.
struct LoopOut {
  std::vector<uint32_t> items;
  std::vector<float> latency_ms;
  std::vector<Exec> traced;  ///< Traced loops only.
  double wall = 0;  ///< Time spent inside the engine's API.
};

/// Failure accounting: every checked execution is one attempt.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
};

struct Prepared {
  std::vector<Item> items;
  int setups = 0;  ///< Set-up repetitions before and after each segment.
  /// The workload's triples, regenerated for each half of the set-ups
  /// (null for dbpedia-snapshot, which opens its saved file).
  std::function<std::vector<TermTriple>()> generate;
  /// One set-up: triples (or the saved snapshot) to a query-ready database.
  std::function<Database(const std::vector<TermTriple>&)> open;
  std::optional<Database> db;
  std::unique_ptr<ThreadPool> pool;  ///< lubm-param's batch workers.
  std::optional<Rng> rng;            ///< lubm-param's request stream.
  std::vector<double> setup_s, ttfa_s;
  std::vector<double> save_s;  ///< dbpedia-snapshot: SaveSnapshot times.
  std::string snapshot_path;
  uint64_t snapshot_bytes = 0;
  uint64_t triples = 0;
};

// --- Oracle -----------------------------------------------------------------

Digest OracleDigest(const Database& db, const std::string& text) {
  PairwiseEngine oracle(&db.index(), &db.dict());
  return TableDigest(oracle.ExecuteToTable(Parser::Parse(text)));
}

/// Runs `item` once on `engine`, outside any timed region, and checks the
/// decoded answer against the oracle digest. On success the item learns the
/// raw-id digest and column order the timed loops compare against, so a
/// timed execution is correct iff its raw digest equals the anchored one.
bool Anchor(Engine& engine, Item* item) {
  std::vector<RawRow> rows;
  std::vector<std::string> projection;
  QueryStats st;
  try {
    engine.Execute(
        item->text, [&rows](const RawRow& r) { rows.push_back(r); }, &st,
        nullptr, &projection);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", item->id.c_str(), e.what());
    return false;
  }
  GlobalIds ids = GlobalIds::FromDictionary(engine.dict());
  ResultTable table;
  table.var_names = projection;
  item->var_hashes = VarHashes(projection);
  item->raw = {};
  for (const RawRow& r : rows) {
    std::vector<std::optional<Term>> decoded(r.size());
    for (size_t i = 0; i < r.size(); ++i) {
      if (r[i] != kNullBinding) decoded[i] = ids.Decode(engine.dict(), r[i]);
    }
    table.rows.push_back(std::move(decoded));
    item->raw.Add(RawRowHash(item->var_hashes, r));
  }
  return st.termination == QueryTermination::kOk &&
         TableDigest(table) == item->oracle;
}

/// One Engine::Execute into a hashing sink; true iff the answer matched
/// the anchored digest.
bool ExecuteItem(Engine& engine, const Item& item, QueryStats* st,
                 std::optional<Clock::time_point>* first_row) {
  Digest d;
  try {
    engine.Execute(
        item.text,
        [&](const RawRow& row) {
          if (!first_row->has_value()) *first_row = Clock::now();
          d.Add(RawRowHash(item.var_hashes, row));
        },
        st);
  } catch (const std::exception&) {
    return false;
  }
  return st->termination == QueryTermination::kOk && d == item.raw;
}

// --- Set-up -----------------------------------------------------------------

/// Repeats set-up `reps` times, timing it and the first query's last row
/// after it (time to first answer). With `keep`, the last database becomes
/// the one the timed loop uses; otherwise each is dropped after timing.
/// The triples are generated here and freed on return, so they are not
/// resident during the timed loop.
void TimedSetups(int reps, bool keep, Prepared* p) {
  std::vector<TermTriple> triples;
  if (p->generate) {
    triples = p->generate();
    p->triples = triples.size();
  }
  std::optional<Database> db;
  for (int r = 0; r < reps; ++r) {
    db.reset();
    Clock::time_point t0 = Clock::now();
    db.emplace(p->open(triples));
    Clock::time_point t1 = Clock::now();
    db->engine().Execute(p->items[0].text, [](const RawRow&) {});
    Clock::time_point t2 = Clock::now();
    p->setup_s.push_back(SecondsBetween(t0, t1));
    p->ttfa_s.push_back(SecondsBetween(t0, t2));
  }
  if (keep) p->db = std::move(db);
}

std::vector<Item> LubmItems(const std::set<std::string>& ids) {
  std::vector<Item> items;
  for (const BenchQuery& q : LubmQueries()) {
    if (ids.count(q.id) > 0) items.push_back(Item{q.id, q.sparql, {}, {}, {}});
  }
  return items;
}

void PrepareAnalytic(const Options& opt, Prepared* p) {
  LubmConfig cfg;
  cfg.num_universities = kAnalyticUniversities;
  cfg.seed = opt.seed;
  p->generate = [cfg] { return GenerateLubm(cfg); };
  // Embedded defaults: TP cache off, plan cache on.
  p->open = [](const std::vector<TermTriple>& t) { return Database::Build(t); };
  p->setups = kAnalyticSetups;
  p->items = LubmItems({"Q1", "Q2", "Q3"});
}

// The ablation_plan_cache dashboard shape: one department's professors,
// their advisees, optional contact and coursework.
std::string DepartmentQuery(const std::string& dept_iri) {
  return "SELECT * WHERE { ?prof <http://lubm/worksFor> <" + dept_iri +
         "> . ?st <http://lubm/advisor> ?prof . "
         "OPTIONAL { ?prof <http://lubm/emailAddress> ?email } "
         "OPTIONAL { ?st <http://lubm/takesCourse> ?course } }";
}

/// E.1 Q4-Q6 with their fixed department replaced.
std::string WithDepartment(const std::string& text,
                           const std::string& dept_iri) {
  const std::string marker = "<http://lubm/Department";
  size_t lo = text.find(marker);
  size_t hi = text.find('>', lo);
  return text.substr(0, lo + 1) + dept_iri + text.substr(hi);
}

void PrepareParam(const Options& opt, Prepared* p) {
  LubmConfig cfg;
  cfg.num_universities = kParamUniversities;
  cfg.seed = opt.seed;
  p->generate = [cfg] { return GenerateLubm(cfg); };
  // The serving configuration: workers share the TP cache and plan cache.
  p->open = [](const std::vector<TermTriple>& t) {
    EngineOptions eo;
    eo.enable_tp_cache = true;
    return Database::Build(t, eo);
  };
  p->setups = kParamSetups;

  p->rng.emplace(Mix64(opt.seed));
  std::vector<Item> shapes = LubmItems({"Q4", "Q5", "Q6"});
  shapes.insert(shapes.begin(), Item{"dept", "", {}, {}, {}});
  for (const Item& shape : shapes) {
    std::set<std::pair<uint64_t, uint64_t>> drawn;
    while (drawn.size() < static_cast<size_t>(kParamDepartments)) {
      uint64_t u = p->rng->Uniform(cfg.num_universities);
      uint64_t d = p->rng->Uniform(cfg.departments_per_university);
      if (!drawn.insert({u, d}).second) continue;
      std::string iri = LubmDepartmentIri(static_cast<uint32_t>(u),
                                          static_cast<uint32_t>(d));
      std::string text = shape.id == "dept" ? DepartmentQuery(iri)
                                            : WithDepartment(shape.text, iri);
      p->items.push_back(Item{shape.id, std::move(text), {}, {}, {}});
    }
  }
  long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  p->pool = std::make_unique<ThreadPool>(static_cast<int>(nproc > 0 ? nproc : 1));
}

void PrepareSnapshot(const Options& opt, Prepared* p) {
  // table6_4_dbpedia's scale 1: ~131k triples over 303 predicates.
  DbpediaConfig cfg;
  cfg.num_places = 4000;
  cfg.num_persons = 6000;
  cfg.num_soccer_players = 3000;
  cfg.num_settlements = 1500;
  cfg.num_airports = 600;
  cfg.num_companies = 2000;
  cfg.num_noise_triples = 40000;
  cfg.seed = opt.seed;
  for (const BenchQuery& q : DbpediaQueries()) {
    p->items.push_back(Item{q.id, q.sparql, {}, {}, {}});
  }
  p->snapshot_path = opt.out_dir + "/dbpedia-seed" + std::to_string(opt.seed) +
                     "-" + std::to_string(static_cast<long>(::getpid())) +
                     ".snap";
  {
    std::vector<TermTriple> triples = GenerateDbpedia(cfg);
    p->triples = triples.size();
    Database heap = Database::Build(triples);
    std::vector<TermTriple>().swap(triples);
    for (Item& item : p->items) item.oracle = OracleDigest(heap, item.text);
    for (int r = 0; r < (opt.trace ? 3 : 1); ++r) {
      Clock::time_point t0 = Clock::now();
      heap.SaveSnapshot(p->snapshot_path);
      p->save_s.push_back(SecondsBetween(t0, Clock::now()));
    }
  }
  p->snapshot_bytes = std::filesystem::file_size(p->snapshot_path);

  // The budget is a quarter of the measured working set: what an unbudgeted
  // open holds resident after one sweep of the query set.
  uint64_t working_set = 0;
  {
    Database full = Database::OpenSnapshot(p->snapshot_path);
    for (const Item& item : p->items) {
      full.engine().Execute(item.text, [](const RawRow&) {});
    }
    working_set = full.index().snapshot_resident_bytes();
  }
  SnapshotOptions snap;
  snap.memory_budget_bytes = working_set / 4 + 1;
  p->open = [path = p->snapshot_path, snap](const std::vector<TermTriple>&) {
    return Database::OpenSnapshot(path, {}, snap);
  };
  p->setups = kSnapshotSetups;
}

/// Checks every distinct query once on the set-up database, untimed: the
/// heap workloads compute their oracle digests here, the single-client
/// workloads anchor their raw digests, and lubm-param runs every text once
/// through the batch path the timed loop uses (which also warms its caches).
void CheckBeforeTiming(Tally* tally, Prepared* p) {
  if (p->pool == nullptr) {
    for (Item& item : p->items) {
      if (p->snapshot_path.empty()) item.oracle = OracleDigest(*p->db, item.text);
      tally->Check(Anchor(p->db->engine(), &item), item.id + " oracle");
    }
    return;
  }
  std::vector<std::string> texts;
  for (Item& item : p->items) {
    item.oracle = OracleDigest(*p->db, item.text);
    texts.push_back(item.text);
  }
  BatchOptions bo;
  bo.pool = p->pool.get();
  std::vector<BatchResult> results = p->db->ExecuteBatch(texts, bo);
  for (size_t i = 0; i < results.size(); ++i) {
    tally->Check(results[i].outcome.ok() &&
                     TableDigest(results[i].table) == p->items[i].oracle,
                 p->items[i].id + " oracle: " + p->items[i].text);
  }
}

// --- Timed loops ------------------------------------------------------------

/// Adds one query span and its phase children. plan/init/prune are the
/// engine's reported durations laid end to end from the query's start;
/// join runs from there to `join_end`.
void AddQuerySpans(Trace* trace, int parent, int exec, const char* id,
                   double start, double join_end, double end, bool derived,
                   const QueryStats& st) {
  int q = trace->Add("query", start, end, parent, exec, id, derived);
  double t = start;
  const std::pair<const char*, double> phases[] = {
      {"plan", st.t_plan_sec}, {"init", st.t_init_sec}, {"prune", st.t_prune_sec}};
  for (const auto& [name, dur] : phases) {
    trace->Add(name, t, t + dur, q, exec, id, true);
    t += dur;
  }
  trace->Add("join", t, join_end, q, exec, id, true);
  if (end > join_end) trace->Add("deliver", join_end, end, q, exec, id, derived);
}

/// One client, closed loop, round-robin over the items until `seconds`
/// have passed and the last round is complete. Appends to `*out`; times
/// are relative to `epoch`.
void SingleClientLoop(Engine& engine, const std::vector<Item>& items,
                      double seconds, Clock::time_point epoch, Tally* tally,
                      Trace* trace, LoopOut* out) {
  const Clock::time_point begin = Clock::now();
  for (size_t i = 0;; ++i) {
    if (i % items.size() == 0 &&
        SecondsBetween(begin, Clock::now()) >= seconds) {
      break;
    }
    const uint32_t k = static_cast<uint32_t>(i % items.size());
    QueryStats st;
    std::optional<Clock::time_point> first_row;
    Clock::time_point t0 = Clock::now();
    bool ok = ExecuteItem(engine, items[k], &st, &first_row);
    Clock::time_point t1 = Clock::now();
    tally->Check(ok, items[k].id);
    out->items.push_back(k);
    out->latency_ms.push_back(static_cast<float>(SecondsBetween(t0, t1) * 1e3));
    if (trace != nullptr) {
      Exec x;
      x.item = k;
      x.start = SecondsBetween(epoch, t0);
      x.end = SecondsBetween(epoch, t1);
      x.first_row = first_row ? SecondsBetween(epoch, *first_row) : x.end;
      x.stats = st;
      AddQuerySpans(trace, -1, static_cast<int>(out->traced.size()),
                    items[k].id.c_str(), x.start, x.first_row, x.end, false,
                    st);
      out->traced.push_back(x);
    }
  }
  out->wall += SecondsBetween(begin, Clock::now());
}

/// Closed loop of ExecuteBatch calls on the pool, each batch drawn from the
/// items by the seeded RNG. Checking answers happens between batches and
/// is not counted in `wall`. Appends to `*out`; times are relative to
/// `epoch`.
void BatchLoop(Prepared* p, double seconds, Clock::time_point epoch,
               Tally* tally, Trace* trace, LoopOut* out) {
  BatchOptions bo;
  bo.pool = p->pool.get();
  const size_t batch_size =
      static_cast<size_t>(kParamBatchPerSlot * p->pool->num_slots());
  std::vector<uint32_t> picks(batch_size);
  std::vector<std::string> texts(batch_size);
  const Clock::time_point begin = Clock::now();
  while (SecondsBetween(begin, Clock::now()) < seconds) {
    for (size_t j = 0; j < batch_size; ++j) {
      picks[j] = static_cast<uint32_t>(p->rng->Uniform(p->items.size()));
      texts[j] = p->items[picks[j]].text;
    }
    Clock::time_point t0 = Clock::now();
    std::vector<BatchResult> results = p->db->ExecuteBatch(texts, bo);
    Clock::time_point t1 = Clock::now();
    out->wall += SecondsBetween(t0, t1);
    const double b0 = SecondsBetween(epoch, t0);
    const double b1 = SecondsBetween(epoch, t1);
    int batch_span = trace != nullptr
                         ? trace->Add("batch", b0, b1, -1, -1, "", false)
                         : -1;
    for (size_t j = 0; j < batch_size; ++j) {
      const BatchResult& r = results[j];
      const Item& item = p->items[picks[j]];
      const bool ok = r.outcome.ok() && TableDigest(r.table) == item.oracle;
      tally->Check(ok, ok ? item.id : item.id + ": " + r.error);
      out->items.push_back(picks[j]);
      out->latency_ms.push_back(static_cast<float>(
          (r.queue_wait_sec + r.stats.t_total_sec) * 1e3));
      if (trace != nullptr) {
        // ExecuteBatch reports queue wait and engine time as durations;
        // the spans place them from the batch's start.
        Exec x;
        x.item = picks[j];
        x.queue_wait = r.queue_wait_sec;
        x.start = b0 + r.queue_wait_sec;
        x.end = x.start + r.stats.t_total_sec;
        x.first_row = x.end;
        x.shed = r.outcome.code == QueryTermination::kOverloaded;
        x.stats = r.stats;
        const int exec = static_cast<int>(out->traced.size());
        trace->Add("queue", b0, x.start, batch_span, exec, item.id.c_str(),
                   true);
        AddQuerySpans(trace, batch_span, exec, item.id.c_str(), x.start, x.end,
                      x.end, true, r.stats);
        out->traced.push_back(x);
      }
    }
  }
}

void RunLoop(Prepared* p, double seconds, Clock::time_point epoch,
             Tally* tally, Trace* trace, LoopOut* out) {
  if (p->pool != nullptr) {
    BatchLoop(p, seconds, epoch, tally, trace, out);
  } else {
    SingleClientLoop(p->db->engine(), p->items, seconds, epoch, tally, trace,
                     out);
  }
}

// --- Metrics ----------------------------------------------------------------

std::vector<Metric> EndToEndMetrics(const Prepared& p, const LoopOut& loop,
                                    double peak_rss_mb) {
  std::vector<double> lat_ms(loop.latency_ms.begin(), loop.latency_ms.end());
  std::map<std::string, std::vector<double>> by_id;
  for (size_t i = 0; i < lat_ms.size(); ++i) {
    by_id[p.items[loop.items[i]].id].push_back(lat_ms[i]);
  }
  std::vector<double> id_medians;
  for (const auto& [id, v] : by_id) id_medians.push_back(Median(v));
  return {
      {"setup_s", Median(p.setup_s), "s"},
      {"ttfa_ms", Median(p.ttfa_s) * 1e3, "ms"},
      {"qps", Ratio(static_cast<double>(lat_ms.size()), loop.wall), "1/s"},
      {"latency_p50_ms", Quantile(lat_ms, 0.50), "ms"},
      {"latency_p95_ms", Quantile(lat_ms, 0.95), "ms"},
      {"geomean_ms", Geomean(id_medians), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

/// Measurements the traced run takes outside its loops, by calling layer
/// functions directly.
struct Extras {
  double parse_us = 0;          ///< Mean over distinct texts of the median parse.
  double load_ms = 0;           ///< Mean per text of the unmasked TP loads.
  double loaded_triples = 0;    ///< Mean per text of the triples they load.
  std::map<std::string, double> prune_speedup;  ///< By query id.
};

Extras MeasureExtras(Prepared* p, Tally* tally) {
  Extras x;
  const Database& db = *p->db;
  std::vector<double> parse_us, load_ms, loaded;
  for (const Item& item : p->items) {
    std::vector<double> reps;
    for (int r = 0; r < kParseReps; ++r) {
      Clock::time_point t0 = Clock::now();
      ParsedQuery parsed = Parser::Parse(item.text);
      reps.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
    }
    parse_us.push_back(Median(reps));

    ParsedQuery parsed = Parser::Parse(item.text);
    std::vector<const TriplePattern*> tps;
    parsed.body->CollectTriplePatterns(&tps);
    double ms = 0;
    uint64_t triples = 0;
    for (const TriplePattern* tp : tps) {
      Clock::time_point t0 = Clock::now();
      TpBitMat bm = LoadTpBitMat(db.index(), db.dict(), *tp, true);
      ms += SecondsBetween(t0, Clock::now()) * 1e3;
      triples += bm.bm.Count();
    }
    load_ms.push_back(ms);
    loaded.push_back(static_cast<double>(triples));
  }
  x.parse_us = Mean(parse_us);
  x.load_ms = Mean(load_ms);
  x.loaded_triples = Mean(loaded);

  // Net effect of pruning: the workload's engine configuration with
  // prune_triples and active pruning on vs off, timed in alternating pairs
  // on one text per query id.
  EngineOptions full_opts = p->db->engine().options();
  full_opts.plan_cache = nullptr;
  EngineOptions off_opts = full_opts;
  off_opts.enable_prune = false;
  off_opts.enable_active_pruning = false;
  Engine full(&db.index(), &db.dict(), full_opts);
  Engine off(&db.index(), &db.dict(), off_opts);
  std::set<std::string> seen;
  for (Item item : p->items) {
    if (!seen.insert(item.id).second) continue;
    if (item.var_hashes.empty()) {
      tally->Check(Anchor(full, &item), item.id + " oracle");
    }
    std::vector<double> t_full, t_off;
    for (int r = 0; r <= kPrunePairs; ++r) {
      for (int side = 0; side < 2; ++side) {
        bool pruned = (side == 0) == (r % 2 == 0);
        QueryStats st;
        std::optional<Clock::time_point> first_row;
        Clock::time_point t0 = Clock::now();
        bool ok = ExecuteItem(pruned ? full : off, item, &st, &first_row);
        double sec = SecondsBetween(t0, Clock::now());
        tally->Check(ok, item.id + (pruned ? " pruned" : " unpruned"));
        if (r == 0) continue;  // warm-up pair
        (pruned ? t_full : t_off).push_back(sec);
      }
    }
    x.prune_speedup[item.id] = Ratio(Median(t_off), Median(t_full));
  }
  return x;
}

std::vector<Metric> LayerMetrics(const Prepared& p, const LoopOut& plain,
                                 const LoopOut& traced, const Extras& x) {
  const bool batch = p.pool != nullptr;
  const size_t n = traced.traced.size();
  std::vector<double> plan, init, prune, join, deliver, qwait;
  double rows = 0, nulls = 0, best = 0, contention = 0, mats = 0, spills = 0;
  double resident = 0, shed = 0;
  double plan_hits = 0, plan_lookups = 0, tp_hits = 0, tp_lookups = 0;
  double before = 0, after = 0;
  std::map<std::string, std::map<std::string, std::vector<double>>> per_id;
  for (size_t i = 0; i < n; ++i) {
    const Exec& e = traced.traced[i];
    const QueryStats& st = e.stats;
    const double phases = st.t_plan_sec + st.t_init_sec + st.t_prune_sec;
    // Single client: join runs to the first sink row (covering best-match,
    // projection and rule-3 cleanup), deliver from there to the return.
    // Through ExecuteBatch no first-row time is visible, so join also
    // covers decoding into the ResultTable there.
    const double j = batch ? st.t_total_sec - phases
                           : e.first_row - e.start - phases;
    const double d = e.end - e.first_row;
    plan.push_back(st.t_plan_sec * 1e3);
    init.push_back(st.t_init_sec * 1e3);
    prune.push_back(st.t_prune_sec * 1e3);
    join.push_back(std::max(0.0, j) * 1e3);
    deliver.push_back(d * 1e3);
    qwait.push_back(e.queue_wait * 1e3);
    rows += static_cast<double>(st.num_results);
    nulls += static_cast<double>(st.num_results_with_nulls);
    best += st.best_match_used ? 1 : 0;
    contention += static_cast<double>(st.tp_cache_contention);
    mats += static_cast<double>(st.snapshot_materializations);
    spills += static_cast<double>(st.snapshot_spills);
    resident = std::max(resident, static_cast<double>(st.snapshot_resident_bytes));
    shed += e.shed ? 1 : 0;
    plan_hits += static_cast<double>(st.plan_cache_hits);
    plan_lookups += static_cast<double>(st.plan_cache_hits + st.plan_cache_misses);
    tp_hits += static_cast<double>(st.tp_cache_hits);
    tp_lookups += static_cast<double>(st.tp_cache_hits + st.tp_cache_misses);
    before += static_cast<double>(st.initial_triples);
    after += static_cast<double>(st.triples_after_prune);
    auto& m = per_id[p.items[e.item].id];
    m["bitmat.init_ms"].push_back(init.back());
    m["prune.ms"].push_back(prune.back());
    m["join.ms"].push_back(join.back());
    m["deliver.ms"].push_back(deliver.back());
  }
  const double per_query = n > 0 ? 1.0 / static_cast<double>(n) : 0;
  const double qps_plain = Ratio(static_cast<double>(plain.items.size()), plain.wall);
  const double qps_traced = Ratio(static_cast<double>(n), traced.wall);
  const bool mapped = !p.snapshot_path.empty();
  std::vector<double> speedups;
  for (const auto& [id, s] : x.prune_speedup) speedups.push_back(s);

  std::vector<Metric> m = {
      {"sparql.parse_us", x.parse_us, "us"},
      {"plan.ms", Mean(plan), "ms"},
      {"plan_cache.hit_ratio", Ratio(plan_hits, plan_lookups), "ratio"},
      {"bitmat.init_ms", Mean(init), "ms"},
      {"bitmat.load_ms", x.load_ms, "ms"},
      {"bitmat.loaded_triples", x.loaded_triples, "count"},
      {"tp_cache.hit_ratio", Ratio(tp_hits, tp_lookups), "ratio"},
      {"tp_cache.contention", contention * per_query, "count"},
      {"snapshot.open_ms", mapped ? Median(p.setup_s) * 1e3 : 0, "ms"},
      {"snapshot.save_ms", Median(p.save_s) * 1e3, "ms"},
      {"snapshot.bytes_per_triple",
       Ratio(static_cast<double>(p.snapshot_bytes), static_cast<double>(p.triples)),
       "B"},
      {"snapshot.materializations", mats * per_query, "count"},
      {"snapshot.spills", spills * per_query, "count"},
      {"snapshot.resident_mb", resident / (1024.0 * 1024.0), "MB"},
      {"prune.ms", Mean(prune), "ms"},
      {"prune.kept_ratio", Ratio(after, before), "ratio"},
      {"prune.net_speedup", Geomean(speedups), "x"},
      {"join.ms", Mean(join), "ms"},
      {"join.rows_out", rows * per_query, "count"},
      {"join.null_rows", nulls * per_query, "count"},
      {"bestmatch.used_frac", best * per_query, "ratio"},
      {"deliver.ms", Mean(deliver), "ms"},
      {"batch.queue_wait_ms", Mean(qwait), "ms"},
      {"batch.shed", shed, "count"},
      {"trace.qps", qps_traced, "1/s"},
      {"trace.overhead", Ratio(qps_plain, qps_traced), "x"},
  };
  for (const char* id : kTraceIds) {
    auto it = per_id.find(id);
    for (const char* name :
         {"bitmat.init_ms", "prune.ms", "join.ms", "deliver.ms"}) {
      double v = it == per_id.end() ? 0 : Median(it->second.at(name));
      m.push_back({std::string(name) + "." + id, v, "ms"});
    }
    auto sp = x.prune_speedup.find(id);
    m.push_back({std::string("prune.net_speedup.") + id,
                 sp == x.prune_speedup.end() ? 0 : sp->second, "x"});
  }
  return m;
}

// --- Main -------------------------------------------------------------------

std::string ContextJson(const Options& opt, const Prepared& p) {
  long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"seconds\": " << JsonNumber(opt.seconds)
     << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"triples\": " << p.triples
     << ", \"distinct_queries\": " << p.items.size()
     << ", \"nproc\": " << (nproc > 0 ? nproc : 1)
     << ", \"hardware_threads\": " << ThreadPool::HardwareThreads()
     << ", \"commit\": " << JsonString(opt.commit) << ", \"ndebug\": true}";
  return os.str();
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      opt->workload = val;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt->trace = val == "1";
    } else if (key == "--out-dir") {
      opt->out_dir = val;
    } else if (key == "--commit") {
      opt->commit = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt->seconds > 0 &&
         (opt->workload == "lubm-analytic" || opt->workload == "lubm-param" ||
          opt->workload == "dbpedia-snapshot");
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "paper_bench: built without NDEBUG; refusing to record "
               "timings from an unoptimized build\n");
  return 2;
#endif
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: paper_bench --workload "
                 "<lubm-analytic|lubm-param|dbpedia-snapshot> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--commit <id>]\n");
    return 2;
  }
  std::filesystem::create_directories(opt.out_dir);

  Tally tally;
  Prepared p;
  if (opt.workload == "lubm-analytic") {
    PrepareAnalytic(opt, &p);
  } else if (opt.workload == "lubm-param") {
    PrepareParam(opt, &p);
  } else {
    PrepareSnapshot(opt, &p);
  }
  TimedSetups(p.setups, true, &p);
  CheckBeforeTiming(&tally, &p);
  const std::string context = ContextJson(opt, p);
  std::printf("{\"context\": %s}\n", context.c_str());

  // Peak memory is taken over the first timed segment, so the peaks of the
  // generator, the oracle and the set-ups do not mask it. (Returning their
  // freed heap with malloc_trim first made the figure flip by a third from
  // run to run with the allocator's fragmentation.) The untraced record is
  // reserved untouched, so it grows without reallocation copies. A traced
  // run alternates untraced and traced loops, so drift over the run
  // (warming, spill churn, host load) falls on both sides of the overhead
  // ratio.
  Trace trace;
  LoopOut plain, traced;
  plain.items.reserve(1 << 22);
  plain.latency_ms.reserve(1 << 22);
  double peak_rss_mb = 0;
  const double segment = opt.seconds / kLoopSegments;
  const Clock::time_point epoch = Clock::now();
  ResetPeakRss();
  for (int seg = 0; seg < kLoopSegments; ++seg) {
    if (seg > 0) TimedSetups(p.setups, false, &p);
    if (!opt.trace) {
      RunLoop(&p, segment, epoch, &tally, nullptr, &plain);
    } else {
      RunLoop(&p, segment / 2, epoch, &tally, nullptr, &plain);
      RunLoop(&p, segment / 2, epoch, &tally, &trace, &traced);
    }
    if (seg == 0) peak_rss_mb = PeakRssMb();
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    TimedSetups(p.setups, false, &p);
    metrics = EndToEndMetrics(p, plain, peak_rss_mb);
    std::printf("latency samples: %zu over %.3f s\n", plain.items.size(),
                plain.wall);
  } else {
    Extras extras = MeasureExtras(&p, &tally);
    TimedSetups(p.setups, false, &p);
    metrics = LayerMetrics(p, plain, traced, extras);
    std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + ".json";
    if (!trace.Write(path, context)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %s\n", path.c_str());
  }
  p.db.reset();
  if (!p.snapshot_path.empty()) std::filesystem::remove(p.snapshot_path);

  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = tally.failed == 0;
  std::printf("failed_frac: %.6f (%llu of %llu)\n",
              Ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  PrintResultLine(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lbr::perfbench

int main(int argc, char** argv) {
  try {
    return lbr::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paper_bench: %s\n", e.what());
    return 1;
  }
}
