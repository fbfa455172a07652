#ifndef SITEBENCH_WORLD_H_
#define SITEBENCH_WORLD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/data_cloud.h"
#include "core/workflow.h"
#include "gen/generator.h"
#include "planner/prereq.h"
#include "search/query_cache.h"
#include "search/searcher.h"
#include "social/site.h"
#include "storage/wal.h"

namespace sitebench {

using courserank::Result;
using courserank::Status;
using courserank::gen::CourseId;
using courserank::gen::DeptId;
using courserank::gen::UserId;

enum class Workload { kDiscover, kRecommend, kSocialWrite };

const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(const std::string& name);

/// An existing comment and its author (votes must not be self-votes).
struct CommentRef {
  int64_t id = 0;
  UserId author = 0;
};

/// Everything one run needs: the paper-scale site, the caching search and
/// cloud front ends a user session goes through, and the seeded pools
/// requests draw their parameters from.
struct World {
  std::unique_ptr<courserank::social::CourseRankSite> site;
  courserank::gen::GenArtifacts artifacts;

  std::unique_ptr<courserank::search::CachingSearcher> searcher;
  std::unique_ptr<courserank::cloud::CachingCloudBuilder> clouds;
  /// Uncached searcher used only by output checks, so a check never warms
  /// or evicts the cache the requests measure.
  std::unique_ptr<courserank::search::Searcher> checker;

  /// social_write only: WAL with sync_each_append, and the snapshot taken
  /// right after set-up that recovery starts from.
  std::unique_ptr<courserank::storage::WalWriter> wal;
  std::string wal_path;
  std::string snapshot_dir;

  std::optional<courserank::planner::PrereqGraph> prereqs;

  /// Search pool: one- and two-term queries, "american" first. Sampled by
  /// Zipf rank, so the front of the pool is hot.
  std::vector<std::string> queries;
  /// Strategy workflows parsed from the same DSL the site registers, so
  /// the traced run can time Compile and Execute separately.
  std::map<std::string, courserank::flexrecs::NodePtr> workflows;
  /// Course titles with a year they are offered in (related_courses).
  std::vector<std::pair<std::string, int64_t>> offered_titles;
  std::vector<CommentRef> comments;

  /// Time spent in the program's own set-up calls (generation, index,
  /// planner graph, WAL and snapshot, mirror warm-up); the benchmark's
  /// pools built after them are not counted.
  double program_setup_s = 0;
};

/// Generates the paper-scale corpus for `seed`, builds the search index,
/// warms every table's columnar mirror and the parameter pools. For
/// kSocialWrite it also attaches a fresh WAL under `work_dir` and
/// checkpoints a snapshot there. Only the program's calls count as set-up
/// time (World::program_setup_s).
Result<std::unique_ptr<World>> BuildWorld(Workload workload, uint64_t seed,
                                          const std::string& work_dir);

}  // namespace sitebench

#endif  // SITEBENCH_WORLD_H_
