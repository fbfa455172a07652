#ifndef SITEBENCH_WORKLOADS_H_
#define SITEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "world.h"

namespace sitebench {

/// Latency classes the report splits requests into.
enum class ReqClass : uint8_t { kSearch, kPage, kRecommend, kSql, kWrite };
inline constexpr size_t kNumClasses = 5;

const char* ReqClassName(ReqClass c);

struct RequestRecord {
  const char* kind = "";  ///< fine-grained, e.g. "recommend.user_cf"
  ReqClass cls = ReqClass::kSearch;
  uint64_t latency_ns = 0;
  bool ok = true;
};

/// Problems found by the output checks. Any problem fails the run.
struct CheckLog {
  uint64_t checks = 0;
  uint64_t failures = 0;
  std::vector<std::string> problems;  ///< the first few, for the report

  void Expect(bool ok, const std::string& what);
};

/// Requests in one cycle of a fixed-mix workload (recommend,
/// social_write); 0 for discover, which runs browsing sessions.
size_t MixCycleLength(Workload w);

/// Confirms that the social_write cycle has the write-kind counts that
/// SocialWriteKindCounts() derives from the paper-scale corpus.
Status CheckSocialWriteMix();

/// One closed-loop client. Next() builds the next request of the
/// workload's mix from the seeded generator, runs it, times it, folds its
/// response into the digest, and then runs the untimed output checks for
/// it. The request sequence depends only on the seed and on the responses,
/// so two runs with one seed issue identical requests.
class Runner {
 public:
  Runner(World& world, Workload workload, uint64_t seed, Tracer& tracer,
         CheckLog& checks);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  RequestRecord Next();

  /// True between sessions (discover) or between mix cycles (recommend,
  /// social_write) — where a run may stop without skewing the mix.
  bool AtBoundary() const;

  /// FNV-1a digest of every response so far.
  uint64_t digest() const;

  /// Rows returned by recommendation and SQL requests so far.
  uint64_t result_rows() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sitebench

#endif  // SITEBENCH_WORKLOADS_H_
