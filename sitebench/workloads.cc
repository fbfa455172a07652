#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "planner/plan.h"
#include "query/relation.h"

namespace sitebench {

namespace cr = courserank;
using cr::query::ParamMap;
using cr::query::Relation;
using cr::search::ResultSet;
using cr::storage::Row;
using cr::storage::Table;
using cr::storage::Value;

const char* ReqClassName(ReqClass c) {
  switch (c) {
    case ReqClass::kSearch:
      return "search";
    case ReqClass::kPage:
      return "page";
    case ReqClass::kRecommend:
      return "recommend";
    case ReqClass::kSql:
      return "sql";
    case ReqClass::kWrite:
      return "write";
  }
  return "?";
}

void CheckLog::Expect(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++failures;
  if (problems.size() < 20) problems.push_back(what);
}

namespace {

constexpr double kZipfTheta = 0.9;  // as in the corpus generator
/// Course pages are opened from the first this-many hits (ten result pages).
constexpr size_t kMaxPageRank = 100;
/// Every this-many-th refine is re-run from scratch and compared.
constexpr uint64_t kRefineCheckEvery = 4;
/// Writes use days after anything the generator produced.
constexpr int kFirstWriteDay = 100000;
/// Enrollment and plan writes go to terms after the generated history.
constexpr int kFirstWriteYear = 2012;

enum class Op : uint8_t {
  kSearch,
  kRefine,
  kPage,
  kStrategy,
  kSql,
  kRate,
  kComment,
  kVote,
  kTaken,
  kPlan,
};

struct SqlTemplate {
  const char* kind;
  const char* sql;
};

// Join + aggregate reports of the recommend mix.
constexpr SqlTemplate kRatingsByDept = {
    "sql.ratings_by_dept",
    "SELECT c.DepID AS DepID, COUNT(*) AS n, AVG(r.Score) AS avg_score "
    "FROM Ratings r JOIN Courses c ON r.CourseID = c.CourseID "
    "WHERE r.Score >= $min_score GROUP BY c.DepID "
    "ORDER BY n DESC, DepID LIMIT 10"};
constexpr SqlTemplate kGradesByDept = {
    "sql.grades_by_dept",
    "SELECT c.DepID AS DepID, COUNT(*) AS n, AVG(e.Grade) AS avg_grade "
    "FROM Enrollment e JOIN Courses c ON e.CourseID = c.CourseID "
    "WHERE e.Year = $year GROUP BY c.DepID "
    "ORDER BY avg_grade DESC, DepID LIMIT 10"};
// Aggregates of the social_write mix over the tables its writes change.
constexpr SqlTemplate kCommentsByAuthor = {
    "sql.comments_by_author",
    "SELECT SuID, COUNT(*) AS n, SUM(Helpful) AS helpful, "
    "SUM(Unhelpful) AS unhelpful FROM Comments WHERE CourseID = $course "
    "GROUP BY SuID ORDER BY helpful DESC, SuID LIMIT 10"};
constexpr SqlTemplate kCourseRatings = {
    "sql.course_ratings",
    "SELECT r.CourseID AS CourseID, COUNT(*) AS n, AVG(r.Score) AS avg_score "
    "FROM Ratings r JOIN Courses c ON r.CourseID = c.CourseID "
    "WHERE c.DepID = $dept GROUP BY r.CourseID "
    "ORDER BY avg_score DESC, CourseID LIMIT 10"};
constexpr SqlTemplate kGpaByMajor = {
    "sql.gpa_by_major",
    "SELECT Major, COUNT(*) AS n, AVG(GPA) AS avg_gpa FROM Students "
    "WHERE GPA >= $gpa GROUP BY Major ORDER BY n DESC, Major LIMIT 10"};

struct Slot {
  Op op;
  const char* kind = nullptr;         ///< request kind (cycle workloads)
  const char* name = nullptr;         ///< strategy name (kStrategy)
  const SqlTemplate* sql = nullptr;   ///< template (kSql)
};

// Slots of the two cycle workloads.
constexpr Slot kRelated{Op::kStrategy, "recommend.related_courses",
                        "related_courses"};
constexpr Slot kUserCf{Op::kStrategy, "recommend.user_cf", "user_cf"};
constexpr Slot kWeightedCf{Op::kStrategy, "recommend.weighted_user_cf",
                           "weighted_user_cf"};
constexpr Slot kGradeCf{Op::kStrategy, "recommend.grade_cf", "grade_cf"};
constexpr Slot kMajorPopular{Op::kStrategy, "recommend.major_popular",
                             "major_popular"};
constexpr Slot kRecommendMajor{Op::kStrategy, "recommend.recommend_major",
                               "recommend_major"};
constexpr Slot kBestQuarter{Op::kStrategy, "recommend.best_quarter",
                            "best_quarter"};
constexpr Slot kRatingsReport{Op::kSql, kRatingsByDept.kind, nullptr,
                              &kRatingsByDept};
constexpr Slot kGradesReport{Op::kSql, kGradesByDept.kind, nullptr,
                             &kGradesByDept};
constexpr Slot kCommentsReport{Op::kSql, kCommentsByAuthor.kind, nullptr,
                               &kCommentsByAuthor};
constexpr Slot kRatingsOfDept{Op::kSql, kCourseRatings.kind, nullptr,
                              &kCourseRatings};
constexpr Slot kGpaReport{Op::kSql, kGpaByMajor.kind, nullptr, &kGpaByMajor};
constexpr Slot kRate{Op::kRate};
constexpr Slot kComment{Op::kComment};
constexpr Slot kVote{Op::kVote};
constexpr Slot kTaken{Op::kTaken};
constexpr Slot kPlan{Op::kPlan};
constexpr Slot kPage{Op::kPage};
constexpr Slot kSearchSlot{Op::kSearch};

/// One cycle of the recommend mix: 20 requests, weighted toward Fig. 5's
/// related_courses and user_cf (5 each), the other five strategies 1–2
/// each, and two SQL reports. Read-only, so the order changes no cost; it
/// is fixed so every cycle has the same composition.
constexpr Slot kRecommendCycle[] = {
    kRelated, kUserCf,        kMajorPopular, kRelated,       kUserCf,
    kBestQuarter, kRelated,   kUserCf,       kRecommendMajor, kRatingsReport,
    kRelated, kUserCf,        kWeightedCf,   kBestQuarter,    kRelated,
    kUserCf,  kGradeCf,       kMajorPopular, kRecommendMajor, kGradesReport,
};

/// One cycle of the social_write mix: 20 writes and 20 reads, alternating.
/// The write kinds come in the proportions of SocialWriteKindCounts(): 10
/// course reports, 6 comments, 2 ratings, 1 plan and 1 vote. The reads (6
/// pages, 6 searches, 2 of each SQL aggregate, 2 major_popular) are a
/// coverage choice, not measured traffic. The order is fixed, and the
/// scanning reads come after writes that drop or extend the mirror they
/// scan (the vote before a Comments report, a rating before each Ratings
/// read, a course report before each Students read), so each cycle pays
/// the same mirror rebuilds whatever the seed.
constexpr Slot kSocialWriteCycle[] = {
    kTaken,   kPage,           kComment, kSearchSlot,   kTaken,   kGpaReport,
    kRate,    kRatingsOfDept,  kComment, kPage,         kVote,    kCommentsReport,
    kTaken,   kSearchSlot,     kComment, kMajorPopular, kTaken,   kPage,
    kPlan,    kSearchSlot,     kTaken,   kCommentsReport, kComment, kPage,
    kTaken,   kGpaReport,      kRate,    kRatingsOfDept, kTaken,  kSearchSlot,
    kComment, kPage,           kTaken,   kMajorPopular, kComment, kSearchSlot,
    kTaken,   kPage,           kTaken,   kSearchSlot,
};

/// Writes per social_write cycle.
constexpr size_t kCycleWrites = 20;

/// How many of kCycleWrites writes each kind gets: every row of the
/// paper-scale corpus was once one user write, so the kinds share the
/// cycle in the corpus's proportions. Ratings, Comments, Enrollment
/// (active students × courses each) and Plans (active students × plans
/// each) are apportioned by largest remainder. The corpus has no votes;
/// a vote gets the one slot left aside for it, because VoteComment is the
/// write whose mirror drop the mix must show.
std::map<Op, size_t> SocialWriteKindCounts() {
  const cr::gen::GenConfig c = cr::gen::GenConfig::PaperScale(0);
  const double active =
      std::floor(c.active_fraction * static_cast<double>(c.num_students));
  const std::pair<Op, double> rows[] = {
      {Op::kTaken, active * c.courses_per_active},
      {Op::kComment, static_cast<double>(c.num_comments)},
      {Op::kRate, static_cast<double>(c.num_ratings)},
      {Op::kPlan, active * static_cast<double>(c.plans_per_active)},
  };
  const size_t slots = kCycleWrites - 1;  // one is the vote's
  double total = 0;
  for (const auto& [op, n] : rows) total += n;
  std::map<Op, size_t> counts = {{Op::kVote, 1}};
  std::vector<std::pair<double, Op>> remainders;
  size_t given = 0;
  for (const auto& [op, n] : rows) {
    double quota = n / total * static_cast<double>(slots);
    counts[op] = static_cast<size_t>(quota);
    given += counts[op];
    remainders.emplace_back(quota - std::floor(quota), op);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t i = 0; given < slots; ++i, ++given) ++counts[remainders[i].second];
  return counts;
}

constexpr cr::Quarter kQuarters[] = {cr::Quarter::kAutumn,
                                     cr::Quarter::kWinter,
                                     cr::Quarter::kSpring};

/// Table names that a DSL or SQL text mentions as identifiers.
std::vector<const Table*> TablesNamedIn(const std::string& text,
                                        const cr::storage::Database& db) {
  std::vector<const Table*> tables;
  std::string word;
  auto flush = [&] {
    if (word.empty()) return;
    const Table* t = db.FindTable(word);
    if (t != nullptr &&
        std::find(tables.begin(), tables.end(), t) == tables.end()) {
      tables.push_back(t);
    }
    word.clear();
  };
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      word += c;
    } else {
      flush();
    }
  }
  flush();
  return tables;
}

/// A token the analyzer keeps as is: consonants only (no stemming suffix
/// can apply), prefixed so it never collides with corpus vocabulary.
std::string UniqueToken(uint64_t n) {
  static constexpr char kLetters[] = "bcdfghjklmnpqrtvwxz";
  std::string out = "qx";
  do {
    out += kLetters[n % 19];
    n /= 19;
  } while (n > 0);
  return out;
}

}  // namespace

struct Runner::Impl {
  Impl(World& w, Workload wl, uint64_t seed, Tracer& t, CheckLog& c)
      : world(w),
        site(*w.site),
        workload(wl),
        tracer(t),
        checks(c),
        rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(wl) + 1),
        query_zipf(w.queries.size(), kZipfTheta),
        course_zipf(w.artifacts.courses.size(), kZipfTheta) {
    courses_by_rank = w.artifacts.courses;
    rng.Shuffle(courses_by_rank);
    for (const auto& [phrase, ids] : w.artifacts.american_courses) {
      american.insert(ids.begin(), ids.end());
    }
    auto& reg = cr::obs::MetricsRegistry::Default();
    wal_hist = reg.GetHistogram("cr_wal_append_ns");
    parse_hist = reg.GetHistogram("cr_sql_parse_ns");
    for (const auto& [name, wf] : w.workflows) {
      strategy_tables[name] = TablesNamedIn(wf->ToString(0), site.db());
    }
    for (const SqlTemplate* t : {&kRatingsByDept, &kGradesByDept,
                                 &kCommentsByAuthor, &kCourseRatings,
                                 &kGpaByMajor}) {
      sql_tables[t] = TablesNamedIn(t->sql, site.db());
    }
  }

  RequestRecord Next();
  bool AtBoundary() const;

  // ---- request choice ----
  Slot NextSlot();
  std::span<const Slot> Cycle() const;
  void StartSession();

  // ---- request bodies (timed) ----
  cr::Status Search(const std::string& query);
  cr::Status Refine(const std::string& term);
  cr::Status Page(UserId viewer, CourseId course);
  cr::Status Strategy(const char* name, const ParamMap& params);
  Result<Relation> TracedStrategy(const char* name, const ParamMap& params);
  cr::Status Sql(const SqlTemplate& tmpl, const ParamMap& params);

  // ---- digest (of the last response, after the clock stops) ----
  void DigestResponse(Op op);
  void Mix(const void* data, size_t n);
  void Mix(const std::string& s) {
    Mix(s.data(), s.size());
    Mix("\x1f", 1);
  }
  void Mix(uint64_t v) { Mix(&v, sizeof v); }
  void MixDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    Mix(bits);
  }
  void MixValue(const Value& v) {
    if (v.type() == cr::storage::ValueType::kDouble) {
      MixDouble(v.AsDouble());
    } else {
      Mix(v.ToString());
    }
  }
  void MixRelation(const Relation& rel) {
    result_rows += rel.rows.size();
    Mix(static_cast<uint64_t>(rel.rows.size()));
    for (const Row& row : rel.rows) {
      for (const Value& v : row) MixValue(v);
    }
  }
  void MixResults(const ResultSet& rs, const cr::cloud::DataCloud& cloud) {
    for (const std::string& t : rs.terms) Mix(t);
    Mix(static_cast<uint64_t>(rs.hits.size()));
    for (const auto& hit : rs.hits) {
      Mix(static_cast<uint64_t>(hit.doc));
      MixDouble(hit.score);
    }
    for (const auto& term : cloud.terms) {
      Mix(term.term);
      MixDouble(term.score);
      Mix(static_cast<uint64_t>(term.doc_count));
    }
  }
  void MixStatus(const cr::Status& s) {
    Mix(static_cast<uint64_t>(s.code()));
  }

  // ---- parameter draws ----
  UserId ActiveStudent() {
    const auto& v = world.artifacts.active_students;
    return v[rng.NextBounded(v.size())];
  }
  UserId AnyStudent() {
    const auto& v = world.artifacts.students;
    return v[rng.NextBounded(v.size())];
  }
  CourseId PopularCourse() { return courses_by_rank[course_zipf.Sample(rng)]; }
  /// A rank in [0, n), Zipf-skewed like the rest of the workload: users
  /// click the top hits and the biggest cloud terms most.
  size_t ZipfRank(size_t n) {
    auto it = rank_zipf.find(n);
    if (it == rank_zipf.end()) {
      it = rank_zipf.emplace(n, cr::ZipfSampler(n, kZipfTheta)).first;
    }
    return it->second.Sample(rng);
  }
  DeptId AnyDept() {
    const auto& v = world.artifacts.departments;
    return v[rng.NextBounded(v.size())];
  }
  ParamMap StrategyParams(const std::string& name);
  ParamMap SqlParams(const SqlTemplate& tmpl);
  void TouchTables(const std::vector<const Table*>& tables);
  CourseId CourseOf(cr::search::DocId doc) const {
    return site.index().doc(doc).key.AsInt();
  }

  // ---- writes (timed body + untimed read-your-writes checks) ----
  RequestRecord Rate();
  RequestRecord Comment();
  RequestRecord Vote();
  RequestRecord Taken();
  RequestRecord Plan();

  void CheckAmerican(const ResultSet& rs);
  void CheckRefine(const ResultSet& refined);

  World& world;
  cr::social::CourseRankSite& site;
  Workload workload;
  Tracer& tracer;
  CheckLog& checks;
  cr::Rng rng;
  cr::ZipfSampler query_zipf;
  cr::ZipfSampler course_zipf;
  std::map<size_t, cr::ZipfSampler> rank_zipf;  ///< by list length
  std::vector<CourseId> courses_by_rank;
  std::set<CourseId> american;
  const cr::obs::Histogram* wal_hist = nullptr;
  const cr::obs::Histogram* parse_hist = nullptr;
  std::map<std::string, std::vector<const Table*>> strategy_tables;
  std::map<const SqlTemplate*, std::vector<const Table*>> sql_tables;

  uint64_t digest = 0xcbf29ce484222325ULL;
  uint64_t result_rows = 0;

  // Cycle workloads: position in the cycle (0 = at a boundary).
  size_t cycle_pos = 0;

  // discover: the current browsing session.
  std::vector<Op> session;
  size_t session_pos = 0;
  std::shared_ptr<const ResultSet> current;
  std::shared_ptr<const cr::cloud::DataCloud> current_cloud;
  std::optional<Relation> last_relation;
  std::optional<cr::social::CourseRankSite::CourseDescriptor> last_page;
  uint64_t refines = 0;

  // social_write state.
  int day = kFirstWriteDay;
  uint64_t tokens = 0;
  std::vector<CommentRef> new_comments;
};

void Runner::Impl::Mix(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    digest ^= p[i];
    digest *= 0x100000001b3ULL;
  }
}

void Runner::Impl::DigestResponse(Op op) {
  switch (op) {
    case Op::kSearch:
    case Op::kRefine:
      MixResults(*current, *current_cloud);
      break;
    case Op::kPage:
      Mix(last_page->ToString());
      Mix(static_cast<uint64_t>(last_page->num_ratings));
      MixDouble(last_page->avg_rating.value_or(-1.0));
      last_page.reset();
      break;
    case Op::kStrategy:
    case Op::kSql:
      MixRelation(*last_relation);
      last_relation.reset();
      break;
    default:
      break;
  }
}

void Runner::Impl::StartSession() {
  session.assign(1, Op::kSearch);
  int refines_planned = 1 + static_cast<int>(rng.NextBounded(2));
  int pages = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < refines_planned; ++i) session.push_back(Op::kRefine);
  for (int i = 0; i < pages; ++i) session.push_back(Op::kPage);
  session_pos = 0;
}

bool Runner::Impl::AtBoundary() const {
  if (workload == Workload::kDiscover) return session_pos >= session.size();
  return cycle_pos == 0 || cycle_pos >= Cycle().size();
}

std::span<const Slot> Runner::Impl::Cycle() const {
  if (workload == Workload::kRecommend) return kRecommendCycle;
  return kSocialWriteCycle;
}

Slot Runner::Impl::NextSlot() {
  if (workload == Workload::kDiscover) {
    // Skip steps the session can no longer take: no refine without cloud
    // terms, no page without hits.
    while (true) {
      if (session_pos >= session.size()) StartSession();
      Op op = session[session_pos++];
      if (op == Op::kRefine &&
          (current_cloud == nullptr || current_cloud->terms.empty())) {
        continue;
      }
      if (op == Op::kPage && (current == nullptr || current->hits.empty())) {
        continue;
      }
      return Slot{op};
    }
  }
  if (cycle_pos >= Cycle().size()) cycle_pos = 0;
  return Cycle()[cycle_pos++];
}

ParamMap Runner::Impl::StrategyParams(const std::string& name) {
  ParamMap params;
  if (name == "related_courses") {
    const auto& [title, year] =
        world.offered_titles[rng.NextBounded(world.offered_titles.size())];
    params["title"] = Value(title);
    params["year"] = Value(year);
  } else if (name == "major_popular") {
    params["major"] = Value(AnyDept());
  } else if (name == "best_quarter") {
    params["course"] = Value(PopularCourse());
  } else {
    params["student"] = Value(ActiveStudent());
  }
  return params;
}

ParamMap Runner::Impl::SqlParams(const SqlTemplate& tmpl) {
  ParamMap params;
  if (&tmpl == &kRatingsByDept) {
    params["min_score"] = Value(static_cast<int64_t>(rng.NextInt(1, 4)));
  } else if (&tmpl == &kGradesByDept) {
    params["year"] = Value(static_cast<int64_t>(rng.NextInt(2005, 2008)));
  } else if (&tmpl == &kCommentsByAuthor) {
    params["course"] = Value(PopularCourse());
  } else if (&tmpl == &kCourseRatings) {
    params["dept"] = Value(AnyDept());
  } else {
    params["gpa"] = Value(2.0 + 0.5 * static_cast<double>(rng.NextInt(0, 3)));
  }
  return params;
}

void Runner::Impl::TouchTables(const std::vector<const Table*>& tables) {
  // Traced run only: a scan's mirror rebuild gets its own span instead of
  // hiding inside the query that triggers it.
  if (!tracer.enabled()) return;
  ScopedSpan span(tracer, Layer::kStorage, "storage.columnar");
  for (const Table* t : tables) (void)t->columnar();
}

cr::Status Runner::Impl::Search(const std::string& query) {
  Result<std::shared_ptr<const ResultSet>> rs = [&] {
    ScopedSpan span(tracer, Layer::kSearch, "search.query");
    return world.searcher->Search(query);
  }();
  if (!rs.ok()) return rs.status();
  current = *rs;
  {
    ScopedSpan span(tracer, Layer::kDataCloud, "cloud.build");
    current_cloud = world.clouds->Build(*current);
  }
  return cr::Status::OK();
}

cr::Status Runner::Impl::Refine(const std::string& term) {
  Result<std::shared_ptr<const ResultSet>> rs = [&] {
    ScopedSpan span(tracer, Layer::kSearch, "search.refine");
    return world.searcher->Refine(*current, term);
  }();
  if (!rs.ok()) return rs.status();
  current = *rs;
  {
    ScopedSpan span(tracer, Layer::kDataCloud, "cloud.build");
    current_cloud = world.clouds->Build(*current);
  }
  return cr::Status::OK();
}

cr::Status Runner::Impl::Page(UserId viewer, CourseId course) {
  Result<cr::social::CourseRankSite::CourseDescriptor> page = [&] {
    ScopedSpan span(tracer, Layer::kSocial, "social.descriptor");
    return site.GetCourseDescriptor(viewer, course);
  }();
  if (!page.ok()) return page.status();
  last_page.emplace(std::move(*page));
  return cr::Status::OK();
}

cr::Status Runner::Impl::Strategy(const char* name, const ParamMap& params) {
  Result<Relation> rel = tracer.enabled()
                             ? TracedStrategy(name, params)
                             : site.flexrecs().RunStrategy(name, params);
  if (!rel.ok()) return rel.status();
  last_relation.emplace(std::move(*rel));
  return cr::Status::OK();
}

Result<Relation> Runner::Impl::TracedStrategy(const char* name,
                                              const ParamMap& params) {
  // RunStrategy is Compile + Execute of the registered workflow; the traced
  // run makes the same two calls on the same DSL so each gets a span (the
  // digest compares the responses with the untraced run).
  TouchTables(strategy_tables[name]);
  Result<cr::flexrecs::CompiledWorkflow> compiled = [&] {
    ScopedSpan span(tracer, Layer::kAnalysis, "flexrecs.compile");
    return site.flexrecs().Compile(*world.workflows.at(name));
  }();
  if (!compiled.ok()) return compiled.status();
  ScopedSpan span(tracer, Layer::kFlexRecs, "flexrecs.execute");
  return site.flexrecs().Execute(*compiled, params);
}

cr::Status Runner::Impl::Sql(const SqlTemplate& tmpl, const ParamMap& params) {
  TouchTables(sql_tables[&tmpl]);
  Result<Relation> rel = [&] {
    ScopedSpan span(tracer, Layer::kQuery, "sql.execute", parse_hist,
                    Layer::kQuery, "sql.parse");
    return site.sql().Execute(tmpl.sql, params);
  }();
  if (!rel.ok()) return rel.status();
  last_relation.emplace(std::move(*rel));
  return cr::Status::OK();
}

void Runner::Impl::CheckAmerican(const ResultSet& rs) {
  std::set<CourseId> found;
  for (const auto& hit : rs.hits) found.insert(CourseOf(hit.doc));
  checks.Expect(found == american,
                "search 'american' returned " + std::to_string(found.size()) +
                    " courses, generator made " +
                    std::to_string(american.size()));
}

void Runner::Impl::CheckRefine(const ResultSet& refined) {
  Result<ResultSet> direct = world.checker->SearchTerms(refined.terms);
  bool same = direct.ok() && direct->hits.size() == refined.hits.size();
  for (size_t i = 0; same && i < refined.hits.size(); ++i) {
    same = direct->hits[i].doc == refined.hits[i].doc &&
           direct->hits[i].score == refined.hits[i].score;
  }
  checks.Expect(same, "refine to " + std::to_string(refined.terms.size()) +
                          " terms differs from the conjunctive SearchTerms");
}

// ---- writes -----------------------------------------------------------------

RequestRecord Runner::Impl::Rate() {
  RequestRecord rec{"write.rate", ReqClass::kWrite};
  UserId student = ActiveStudent();
  CourseId course = PopularCourse();
  double score = static_cast<double>(rng.NextInt(1, 5));
  // Expected page figures after the upsert, from the table before it.
  const Table* ratings = site.db().FindTable("Ratings");
  size_t count = 0;
  double sum = 0.0;
  for (cr::storage::RowId rid :
       ratings->LookupEqual({"CourseID"}, {Value(course)})) {
    sum += (*ratings->Get(rid))[2].AsDouble();
    ++count;
  }
  auto existing = ratings->FindByPrimaryKey({Value(student), Value(course)});
  if (existing.ok()) {
    sum -= (*ratings->Get(*existing))[2].AsDouble();
  } else {
    ++count;
  }
  sum += score;

  uint64_t t0 = NowNs();
  tracer.BeginRequest(rec.kind, t0);
  cr::Status s = [&] {
    ScopedSpan span(tracer, Layer::kSocial, "social.rate", wal_hist,
                    Layer::kStorage, "storage.wal");
    return site.RateCourse(student, course, score, day++);
  }();
  uint64_t t1 = NowNs();
  tracer.EndRequest(t1);
  rec.latency_ns = t1 - t0;
  rec.ok = s.ok();
  MixStatus(s);
  if (!s.ok()) return rec;

  auto page = site.GetCourseDescriptor(student, course);
  checks.Expect(page.ok() && page->num_ratings == count &&
                    page->avg_rating.has_value() &&
                    std::abs(*page->avg_rating -
                             sum / static_cast<double>(count)) < 1e-9,
                "course page does not reflect a new rating");
  return rec;
}

RequestRecord Runner::Impl::Comment() {
  RequestRecord rec{"write.comment", ReqClass::kWrite};
  static const char* kWords[] = {"clear",   "lectures", "workload", "heavy",
                                 "fair",    "exams",    "engaging", "problem",
                                 "section", "readings", "helpful",  "pace"};
  UserId student = ActiveStudent();
  CourseId course = PopularCourse();
  std::string token = UniqueToken(tokens++);
  std::string text;
  for (int i = 0; i < 6; ++i) {
    text += kWords[rng.NextBounded(std::size(kWords))];
    text += ' ';
  }
  text += token;

  uint64_t t0 = NowNs();
  tracer.BeginRequest(rec.kind, t0);
  Result<int64_t> id = [&] {
    ScopedSpan span(tracer, Layer::kSocial, "social.comment", wal_hist,
                    Layer::kStorage, "storage.wal");
    return site.AddComment(student, course, text, day++);
  }();
  uint64_t t1 = NowNs();
  tracer.EndRequest(t1);
  rec.latency_ns = t1 - t0;
  rec.ok = id.ok();
  MixStatus(id.status());
  if (!id.ok()) return rec;
  Mix(static_cast<uint64_t>(*id));
  new_comments.push_back(CommentRef{*id, student});

  // The comment's own token must find the course: the index refresh ran.
  Result<ResultSet> found = world.checker->Search(token);
  bool hit = false;
  if (found.ok()) {
    for (const auto& h : found->hits) hit = hit || CourseOf(h.doc) == course;
  }
  checks.Expect(hit, "new comment on course " + std::to_string(course) +
                         " is not found by search");
  return rec;
}

RequestRecord Runner::Impl::Vote() {
  RequestRecord rec{"write.vote", ReqClass::kWrite};
  const Table* votes = site.db().FindTable("CommentVotes");
  CommentRef target;
  UserId voter = 0;
  // Valid voters only: never the author, never a second vote.
  for (int attempt = 0;; ++attempt) {
    bool fresh = !new_comments.empty() && rng.NextBool(0.5);
    target = fresh ? new_comments[rng.NextBounded(new_comments.size())]
                   : world.comments[rng.NextBounded(world.comments.size())];
    voter = AnyStudent();
    if (voter != target.author &&
        !votes->FindByPrimaryKey({Value(target.id), Value(voter)}).ok()) {
      break;
    }
    if (attempt > 1000) {
      checks.Expect(false, "no valid voter found");
      break;
    }
  }
  bool helpful = rng.NextBool(0.7);
  const Table* comments = site.db().FindTable("Comments");
  auto rid = comments->FindByPrimaryKey({Value(target.id)});
  const size_t col = helpful ? 5 : 6;  // Helpful / Unhelpful
  int64_t before = rid.ok() ? (*comments->Get(*rid))[col].AsInt() : -1;

  uint64_t t0 = NowNs();
  tracer.BeginRequest(rec.kind, t0);
  cr::Status s = [&] {
    ScopedSpan span(tracer, Layer::kSocial, "social.vote", wal_hist,
                    Layer::kStorage, "storage.wal");
    return site.VoteComment(voter, target.id, helpful);
  }();
  uint64_t t1 = NowNs();
  tracer.EndRequest(t1);
  rec.latency_ns = t1 - t0;
  rec.ok = s.ok();
  MixStatus(s);
  if (!s.ok()) return rec;

  rid = comments->FindByPrimaryKey({Value(target.id)});
  checks.Expect(rid.ok() && (*comments->Get(*rid))[col].AsInt() == before + 1,
                "vote did not increment comment " + std::to_string(target.id));
  return rec;
}

RequestRecord Runner::Impl::Taken() {
  RequestRecord rec{"write.taken", ReqClass::kWrite};
  const Table* enrollment = site.db().FindTable("Enrollment");
  UserId student = 0;
  CourseId course = 0;
  int year = 0;
  cr::Quarter quarter = cr::Quarter::kAutumn;
  do {
    student = ActiveStudent();
    course = PopularCourse();
    year = kFirstWriteYear + static_cast<int>(rng.NextBounded(4));
    quarter = kQuarters[rng.NextBounded(3)];
  } while (enrollment
               ->FindByPrimaryKey(
                   {Value(student), Value(course), Value(year),
                    Value(std::string(cr::QuarterName(quarter)))})
               .ok());
  double grade = 2.0 + 0.3 * static_cast<double>(rng.NextInt(0, 6));
  // Expected GPA after the write: the mean over the student's graded
  // courses, the new one included.
  double grade_sum = grade;
  size_t graded = 1;
  for (cr::storage::RowId r :
       enrollment->LookupEqual({"SuID"}, {Value(student)})) {
    const Value& g = (*enrollment->Get(r))[4];
    if (g.is_null()) continue;
    grade_sum += g.AsDouble();
    ++graded;
  }
  const double expected_gpa = grade_sum / static_cast<double>(graded);

  uint64_t t0 = NowNs();
  tracer.BeginRequest(rec.kind, t0);
  cr::Status s = [&] {
    ScopedSpan span(tracer, Layer::kSocial, "social.report_taken", wal_hist,
                    Layer::kStorage, "storage.wal");
    return site.ReportCourseTaken(student, course, year, quarter, grade);
  }();
  uint64_t t1 = NowNs();
  tracer.EndRequest(t1);
  rec.latency_ns = t1 - t0;
  rec.ok = s.ok();
  MixStatus(s);
  if (!s.ok()) return rec;

  const Table* students = site.db().FindTable("Students");
  auto rid = students->FindByPrimaryKey({Value(student)});
  const Value gpa = rid.ok() ? (*students->Get(*rid))[4] : Value::Null();
  checks.Expect(!gpa.is_null() && std::abs(gpa.AsDouble() - expected_gpa) < 1e-9,
                "GPA not recomputed after a graded course report");
  return rec;
}

RequestRecord Runner::Impl::Plan() {
  RequestRecord rec{"write.plan", ReqClass::kWrite};
  const Table* plans = site.db().FindTable("Plans");
  UserId student = 0;
  CourseId course = 0;
  cr::Term term;
  do {
    student = ActiveStudent();
    course = PopularCourse();
    term.year = kFirstWriteYear + static_cast<int>(rng.NextBounded(4));
    term.quarter = kQuarters[rng.NextBounded(3)];
  } while (plans
               ->FindByPrimaryKey(
                   {Value(student), Value(course), Value(term.year),
                    Value(std::string(cr::QuarterName(term.quarter)))})
               .ok());

  uint64_t t0 = NowNs();
  tracer.BeginRequest(rec.kind, t0);
  cr::Status s = [&] {
    ScopedSpan span(tracer, Layer::kSocial, "social.plan", wal_hist,
                    Layer::kStorage, "storage.wal");
    return site.PlanCourse(student, course, term.year, term.quarter);
  }();
  std::optional<cr::planner::AcademicPlan> plan;
  std::vector<cr::planner::PlanIssue> issues;
  if (s.ok()) {
    ScopedSpan span(tracer, Layer::kPlanner, "planner.plan_validate");
    s = [&]() -> cr::Status {
      CR_ASSIGN_OR_RETURN(cr::planner::AcademicPlan p,
                          cr::planner::AcademicPlan::FromDatabase(site.db(),
                                                                  student));
      CR_ASSIGN_OR_RETURN(issues, p.Validate(site.db(), *world.prereqs));
      plan.emplace(std::move(p));
      return cr::Status::OK();
    }();
  }
  uint64_t t1 = NowNs();
  tracer.EndRequest(t1);
  rec.latency_ns = t1 - t0;
  rec.ok = s.ok();
  MixStatus(s);
  if (!s.ok()) return rec;
  for (const auto& issue : issues) {
    Mix(static_cast<uint64_t>(issue.kind));
    Mix(static_cast<uint64_t>(issue.course));
    Mix(static_cast<uint64_t>(issue.term.Index()));
  }

  bool planned = false;
  for (const auto& e : plan->entries()) {
    planned = planned || (e.course == course && e.term == term);
  }
  checks.Expect(planned, "plan does not contain the course just planned");
  return rec;
}

// ---- dispatch ---------------------------------------------------------------

RequestRecord Runner::Impl::Next() {
  Slot slot = NextSlot();
  switch (slot.op) {
    case Op::kRate:
      return Rate();
    case Op::kComment:
      return Comment();
    case Op::kVote:
      return Vote();
    case Op::kTaken:
      return Taken();
    case Op::kPlan:
      return Plan();
    default:
      break;
  }

  // Reads: choose parameters, then time the call.
  RequestRecord rec;
  std::string query;
  std::string term;
  UserId viewer = 0;
  CourseId course = 0;
  ParamMap params;
  switch (slot.op) {
    case Op::kSearch:
      rec = {"search", ReqClass::kSearch};
      query = world.queries[query_zipf.Sample(rng)];
      break;
    case Op::kRefine: {
      rec = {"refine", ReqClass::kSearch};
      term = current_cloud->terms[ZipfRank(current_cloud->terms.size())]
                 .display;
      break;
    }
    case Op::kPage: {
      rec = {"page", ReqClass::kPage};
      viewer = ActiveStudent();
      if (workload == Workload::kDiscover) {
        size_t rank = ZipfRank(std::min(current->hits.size(), kMaxPageRank));
        course = CourseOf(current->hits[rank].doc);
      } else {
        course = PopularCourse();
      }
      break;
    }
    case Op::kStrategy:
      rec = {slot.kind, ReqClass::kRecommend};
      params = StrategyParams(slot.name);
      break;
    case Op::kSql:
      rec = {slot.kind, ReqClass::kSql};
      params = SqlParams(*slot.sql);
      break;
    default:
      break;
  }
  Mix(rec.kind, std::strlen(rec.kind));

  uint64_t t0 = NowNs();
  tracer.BeginRequest(rec.kind, t0);
  cr::Status s;
  switch (slot.op) {
    case Op::kSearch:
      s = Search(query);
      break;
    case Op::kRefine:
      s = Refine(term);
      break;
    case Op::kPage:
      s = Page(viewer, course);
      break;
    case Op::kStrategy:
      s = Strategy(slot.name, params);
      break;
    case Op::kSql:
      s = Sql(*slot.sql, params);
      break;
    default:
      break;
  }
  uint64_t t1 = NowNs();
  tracer.EndRequest(t1);
  rec.latency_ns = t1 - t0;
  rec.ok = s.ok();
  MixStatus(s);
  if (s.ok()) DigestResponse(slot.op);

  // Untimed output checks.
  if (s.ok() && slot.op == Op::kSearch && query == "american" &&
      workload == Workload::kDiscover) {
    CheckAmerican(*current);
  }
  if (s.ok() && slot.op == Op::kRefine && refines++ % kRefineCheckEvery == 0) {
    CheckRefine(*current);
  }
  return rec;
}

size_t MixCycleLength(Workload w) {
  switch (w) {
    case Workload::kRecommend:
      return std::size(kRecommendCycle);
    case Workload::kSocialWrite:
      return std::size(kSocialWriteCycle);
    default:
      return 0;
  }
}

Status CheckSocialWriteMix() {
  std::map<Op, size_t> in_cycle;
  size_t writes = 0;
  for (const Slot& slot : kSocialWriteCycle) {
    if (slot.op >= Op::kRate) {
      ++in_cycle[slot.op];
      ++writes;
    }
  }
  if (writes != kCycleWrites || in_cycle != SocialWriteKindCounts()) {
    return Status::Internal(
        "social_write cycle does not match the corpus write proportions");
  }
  return Status::OK();
}

Runner::Runner(World& world, Workload workload, uint64_t seed, Tracer& tracer,
               CheckLog& checks)
    : impl_(std::make_unique<Impl>(world, workload, seed, tracer, checks)) {}

Runner::~Runner() = default;

RequestRecord Runner::Next() { return impl_->Next(); }

bool Runner::AtBoundary() const { return impl_->AtBoundary(); }

uint64_t Runner::digest() const { return impl_->digest; }

uint64_t Runner::result_rows() const { return impl_->result_rows; }

}  // namespace sitebench
