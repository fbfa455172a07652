#include "world.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>

#include "core/strategies.h"
#include "core/workflow_parser.h"
#include "ledger.h"
#include "storage/snapshot.h"

namespace sitebench {

namespace cr = courserank;
using cr::storage::Row;
using cr::storage::Table;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kDiscover:
      return "discover";
    case Workload::kRecommend:
      return "recommend";
    case Workload::kSocialWrite:
      return "social_write";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kDiscover, Workload::kRecommend,
                     Workload::kSocialWrite}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

namespace {

constexpr size_t kOneTermQueries = 400;
constexpr size_t kTwoTermQueries = 200;
/// Document-frequency window for query terms: frequent enough that every
/// query has hits, rare enough that the pool is not all stopword-like.
constexpr size_t kMinDf = 20;
constexpr size_t kMaxDf = 2000;
/// Log-spaced document-frequency strata of the one-term queries.
constexpr size_t kDfStrata = 8;

size_t StratumOf(size_t df) {
  double x = std::log(static_cast<double>(df) / kMinDf) /
             std::log(static_cast<double>(kMaxDf) / kMinDf);
  return std::min(kDfStrata - 1, static_cast<size_t>(x * kDfStrata));
}

/// A two-term query whose terms co-occur in a random document, so it has
/// at least one hit; empty when the draw fails.
std::string TwoTermQuery(const cr::search::InvertedIndex& index,
                         const std::vector<bool>& eligible,
                         const std::vector<cr::search::DocId>& docs,
                         cr::Rng& rng) {
  cr::search::DocId doc = docs[rng.NextBounded(docs.size())];
  std::vector<cr::search::TermId> terms;
  for (const auto& [tid, tf] : index.doc_terms(doc).unigrams) {
    if (tid < eligible.size() && eligible[tid]) terms.push_back(tid);
  }
  if (terms.size() < 2) return "";
  size_t a = rng.NextBounded(terms.size());
  size_t b = rng.NextBounded(terms.size() - 1);
  if (b >= a) ++b;
  std::string q = index.DisplayForm(index.TermString(terms[a])) + " " +
                  index.DisplayForm(index.TermString(terms[b]));
  return index.analyzer().AnalyzeQuery(q).size() == 2 ? q : "";
}

/// The query pool, in popularity-rank order: "american" (Fig. 3) first,
/// then one-term queries over the index vocabulary with every third slot a
/// two-term query. The one-term slot k draws from document-frequency
/// stratum k mod kDfStrata, so the cost of each popularity rank is alike
/// for every seed; only which term fills a slot is random.
std::vector<std::string> BuildQueryPool(const cr::search::InvertedIndex& index,
                                        cr::Rng& rng) {
  const cr::text::Analyzer& analyzer = index.analyzer();
  // Unigram terms whose display form analyzes back to exactly the term.
  std::vector<std::vector<cr::search::TermId>> strata(kDfStrata);
  std::vector<bool> eligible(index.num_terms(), false);
  for (cr::search::TermId t = 0; t < index.num_terms(); ++t) {
    const std::string& term = index.TermString(t);
    if (term.find(' ') != std::string::npos) continue;
    size_t df = index.DocFrequency(t);
    if (df < kMinDf || df > kMaxDf) continue;
    std::vector<std::string> analyzed =
        analyzer.AnalyzeQuery(index.DisplayForm(term));
    if (analyzed.size() != 1 || analyzed[0] != term) continue;
    strata[StratumOf(df)].push_back(t);
    eligible[t] = true;
  }
  for (auto& stratum : strata) rng.Shuffle(stratum);

  std::vector<cr::search::DocId> docs = index.AllLiveDocs();
  std::set<std::string> seen = {"american"};
  std::vector<std::string> pool = {"american"};
  size_t one_term = 0;
  size_t two_term = 0;
  size_t failed_draws = 0;
  while (one_term < kOneTermQueries || two_term < kTwoTermQueries) {
    bool want_two = pool.size() % 3 == 0 && two_term < kTwoTermQueries;
    std::string q;
    if (want_two || one_term >= kOneTermQueries) {
      q = TwoTermQuery(index, eligible, docs, rng);
      if (q.empty() || !seen.insert(q).second) {
        if (++failed_draws > 50 * kTwoTermQueries) break;
        continue;
      }
      ++two_term;
    } else {
      // The slot's stratum, or the next non-empty one.
      for (size_t i = 0; i < kDfStrata && q.empty(); ++i) {
        auto& stratum = strata[(one_term + i) % kDfStrata];
        while (!stratum.empty() && q.empty()) {
          std::string candidate =
              index.DisplayForm(index.TermString(stratum.back()));
          stratum.pop_back();
          if (seen.insert(candidate).second) q = candidate;
        }
      }
      if (q.empty()) break;  // vocabulary exhausted
      ++one_term;
    }
    pool.push_back(q);
  }
  return pool;
}

Status ParseStrategies(World* world) {
  namespace strat = cr::flexrecs::strategies;
  const std::pair<const char*, std::string> dsl[] = {
      {"related_courses", strat::RelatedCoursesDsl()},
      {"user_cf", strat::UserCfDsl()},
      {"weighted_user_cf", strat::WeightedUserCfDsl()},
      {"grade_cf", strat::GradeCfDsl()},
      {"major_popular", strat::MajorPopularDsl()},
      {"recommend_major", strat::RecommendMajorDsl()},
      {"best_quarter", strat::BestQuarterDsl()},
  };
  for (const auto& [name, text] : dsl) {
    CR_ASSIGN_OR_RETURN(cr::flexrecs::NodePtr wf,
                        cr::flexrecs::ParseWorkflow(text));
    world->workflows[name] = std::move(wf);
  }
  return Status::OK();
}

Status CollectParameterPools(World* world) {
  cr::storage::Database& db = world->site->db();
  CR_ASSIGN_OR_RETURN(const Table* courses, db.GetTable("Courses"));
  CR_ASSIGN_OR_RETURN(const Table* offerings, db.GetTable("Offerings"));
  CR_ASSIGN_OR_RETURN(const Table* comments, db.GetTable("Comments"));
  std::map<int64_t, std::string> titles;
  courses->Scan([&](cr::storage::RowId, const Row& row) {
    titles[row[0].AsInt()] = row[3].AsString();
  });
  std::set<std::pair<int64_t, int64_t>> course_years;
  offerings->Scan([&](cr::storage::RowId, const Row& row) {
    course_years.insert({row[1].AsInt(), row[2].AsInt()});
  });
  for (const auto& [course, year] : course_years) {
    world->offered_titles.emplace_back(titles[course], year);
  }
  comments->Scan([&](cr::storage::RowId, const Row& row) {
    world->comments.push_back(CommentRef{row[0].AsInt(), row[1].AsInt()});
  });
  std::sort(world->comments.begin(), world->comments.end(),
            [](const CommentRef& a, const CommentRef& b) {
              return a.id < b.id;
            });
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<World>> BuildWorld(Workload workload, uint64_t seed,
                                          const std::string& work_dir) {
  const uint64_t start = NowNs();
  auto world = std::make_unique<World>();
  cr::gen::Generator generator(cr::gen::GenConfig::PaperScale(seed));
  CR_ASSIGN_OR_RETURN(world->site, generator.Generate());
  world->artifacts = generator.artifacts();
  cr::social::CourseRankSite& site = *world->site;
  CR_RETURN_IF_ERROR(site.BuildSearchIndex());
  CR_ASSIGN_OR_RETURN(world->searcher, site.MakeCachingSearcher());
  world->clouds =
      std::make_unique<cr::cloud::CachingCloudBuilder>(&site.index());
  world->checker = std::make_unique<cr::search::Searcher>(&site.index());
  CR_ASSIGN_OR_RETURN(cr::planner::PrereqGraph prereqs,
                      cr::planner::PrereqGraph::Build(site.db()));
  world->prereqs.emplace(std::move(prereqs));

  if (workload == Workload::kSocialWrite) {
    std::error_code ec;
    std::filesystem::remove_all(work_dir, ec);
    std::filesystem::create_directories(work_dir, ec);
    if (ec) return Status::Internal("cannot create " + work_dir);
    world->wal_path = work_dir + "/site.wal";
    world->snapshot_dir = work_dir + "/snapshot";
    cr::storage::WalOptions options;
    options.sync_each_append = true;
    CR_ASSIGN_OR_RETURN(world->wal,
                        cr::storage::WalWriter::Open(world->wal_path, options));
    site.db().AttachWal(world->wal.get());
    CR_RETURN_IF_ERROR(
        cr::storage::CheckpointDatabase(site.db(), world->snapshot_dir));
  }

  // Generation ends with updates that drop some columnar mirrors; a site
  // that has been up for a while has them built.
  for (const std::string& name : site.db().TableNames()) {
    (void)site.db().FindTable(name)->columnar();
  }
  world->program_setup_s = static_cast<double>(NowNs() - start) / 1e9;

  cr::Rng rng(seed ^ 0x51feb3e7c4ULL);
  world->queries = BuildQueryPool(site.index(), rng);
  CR_RETURN_IF_ERROR(ParseStrategies(world.get()));
  CR_RETURN_IF_ERROR(CollectParameterPools(world.get()));
  return world;
}

}  // namespace sitebench
