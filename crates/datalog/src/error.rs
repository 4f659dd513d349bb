use std::fmt;

/// Errors reported while parsing, validating or solving Datalog programs.
///
/// Location-carrying variants hold 1-based `line`/`col` fields (0 when the
/// construct has no source location, e.g. programmatic rules). The
/// [`crate::Diagnostic`] layer maps every variant onto a stable `E0xx`/`W0xx`
/// code with caret and JSON rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// Syntax error with source position and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
        /// Human-readable description.
        message: String,
    },
    /// A rule or declaration referenced an undeclared domain.
    UnknownDomain {
        /// The name as written.
        name: String,
        /// The closest declared name, when one is close enough to be a
        /// plausible typo.
        suggestion: Option<String>,
        /// 1-based source line of the use (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// A rule, query or API call referenced an undeclared relation.
    UnknownRelation {
        /// The name as written.
        name: String,
        /// The closest declared name, when one is close enough to be a
        /// plausible typo.
        suggestion: Option<String>,
    },
    /// A domain was declared more than once.
    DuplicateDomain(String),
    /// A relation was declared more than once.
    DuplicateRelation(String),
    /// An atom had the wrong number of arguments.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Arity at the use site.
        found: usize,
        /// 1-based source line of the use (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// A variable was used at positions of two different domains.
    TypeConflict {
        /// Variable name.
        var: String,
        /// First domain.
        first: String,
        /// Conflicting domain.
        second: String,
        /// 1-based source line of the rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// A head variable does not occur in any positive body atom.
    UnsafeHeadVar {
        /// Variable name.
        var: String,
        /// The offending rule, pretty-printed.
        rule: String,
        /// 1-based source line of the rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// A variable in a negated atom or constraint does not occur in any
    /// positive body atom.
    UnsafeNegatedVar {
        /// Variable name.
        var: String,
        /// The offending rule, pretty-printed.
        rule: String,
        /// 1-based source line of the offending rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// The program is not stratified: a negation occurs inside a recursive
    /// component.
    NotStratified {
        /// A relation on the offending cycle.
        relation: String,
        /// The rule whose negation closes the cycle, pretty-printed.
        rule: String,
        /// 1-based source line of that rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
        /// A witness path through the dependency graph: relations visited
        /// in order, starting at the negated relation and ending at the
        /// relation whose rule closes the cycle (empty if not computed).
        cycle: Vec<String>,
    },
    /// Warning: a declared relation is used by no rule.
    UnusedRelation {
        /// Relation name.
        relation: String,
        /// 1-based source line of the declaration (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// Warning: a rule's head relation is never read by another rule and
    /// is not an `output`, so the rule can never influence a result.
    DeadRule {
        /// The dead rule, pretty-printed.
        rule: String,
        /// 1-based source line of the rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// Warning: a named variable occurs exactly once in a rule. Such a
    /// variable is an existential the author probably meant to join on;
    /// writing `_` states the intent explicitly.
    SingletonVariable {
        /// Variable name.
        var: String,
        /// The rule containing it, pretty-printed.
        rule: String,
        /// 1-based source line of the rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// Warning: a rule's head relation cannot reach any `output` relation
    /// through the dependency graph, so the rule can never influence an
    /// observable result.
    UnreachableRule {
        /// The unreachable rule, pretty-printed.
        rule: String,
        /// 1-based source line of the rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// Warning: the positive body atoms of a rule split into groups that
    /// share no variables, so the join degenerates into a cartesian
    /// product.
    CrossProduct {
        /// The rule, pretty-printed.
        rule: String,
        /// 1-based source line of the rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
        /// Number of variable-disjoint groups (>= 2).
        groups: usize,
    },
    /// Warning: the static cost model estimates a blow-up-prone join.
    ExpensiveRule {
        /// The rule, pretty-printed.
        rule: String,
        /// 1-based source line of the rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
        /// log2 of the estimated join search space (product of domain
        /// sizes over the rule's distinct body positions).
        cost_log2: u32,
    },
    /// Warning: a rule is identical to an earlier rule up to variable
    /// renaming and body-literal order.
    DuplicateRule {
        /// The later, redundant rule, pretty-printed.
        rule: String,
        /// 1-based source line of the redundant rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
        /// 1-based source line of the first occurrence.
        first_line: usize,
    },
    /// Warning: a rule's body is a superset of another rule's body with
    /// the same head, so everything it derives is already derived.
    SubsumedRule {
        /// The subsumed (stricter) rule, pretty-printed.
        rule: String,
        /// 1-based source line of the subsumed rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
        /// 1-based source line of the more general rule.
        by_line: usize,
    },
    /// A constant is too large for its domain.
    ConstantOutOfRange {
        /// Domain name.
        domain: String,
        /// The constant.
        value: u64,
    },
    /// A quoted constant could not be resolved against the domain's name
    /// map.
    UnresolvedName {
        /// Domain name.
        domain: String,
        /// The quoted name.
        name: String,
    },
    /// A constraint compared terms of different domains.
    ConstraintDomainMismatch {
        /// The offending rule, pretty-printed.
        rule: String,
        /// 1-based source line of the rule (0 if unknown).
        line: usize,
        /// 1-based column (0 if unknown).
        col: usize,
    },
    /// Facts were added to a non-input relation, or a tuple had the wrong
    /// arity/values.
    BadFact(String),
    /// An empirical ordering search was started with a zero evaluation
    /// budget, so no candidate could legally be scored.
    ZeroSearchBudget,
    /// An error bubbled up from the BDD layer.
    Bdd(String),
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Parse { line, message, .. } => {
                write!(f, "parse error at line {line}: {message}")
            }
            DatalogError::UnknownDomain {
                name, suggestion, ..
            } => {
                write!(f, "unknown domain `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            DatalogError::UnknownRelation { name, suggestion } => {
                write!(f, "unknown relation `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            DatalogError::DuplicateDomain(d) => write!(f, "duplicate domain `{d}`"),
            DatalogError::DuplicateRelation(r) => write!(f, "duplicate relation `{r}`"),
            DatalogError::ArityMismatch {
                relation,
                expected,
                found,
                ..
            } => write!(
                f,
                "relation `{relation}` has {expected} attributes but was used with {found}"
            ),
            DatalogError::TypeConflict {
                var, first, second, ..
            } => write!(
                f,
                "variable `{var}` used at domain `{first}` and domain `{second}`"
            ),
            DatalogError::UnsafeHeadVar { var, rule, .. } => write!(
                f,
                "head variable `{var}` not bound by a positive body atom in `{rule}`"
            ),
            DatalogError::UnsafeNegatedVar { var, rule, line, .. } => write!(
                f,
                "variable `{var}` in a negated atom or constraint not bound by a positive body atom in `{rule}` (line {line})"
            ),
            DatalogError::NotStratified { relation, rule, line, .. } => write!(
                f,
                "program is not stratified: negation through recursive relation `{relation}` in `{rule}` (line {line})"
            ),
            DatalogError::UnusedRelation { relation, .. } => {
                write!(f, "relation `{relation}` is declared but used by no rule")
            }
            DatalogError::DeadRule { rule, line, .. } => write!(
                f,
                "dead rule `{rule}` (line {line}): its head is never read and is not an output"
            ),
            DatalogError::SingletonVariable { var, rule, line, .. } => write!(
                f,
                "variable `{var}` occurs only once in `{rule}` (line {line}): write `_` if the value is unused"
            ),
            DatalogError::UnreachableRule { rule, line, .. } => write!(
                f,
                "unreachable rule `{rule}` (line {line}): its head cannot reach any output relation"
            ),
            DatalogError::CrossProduct { rule, line, groups, .. } => write!(
                f,
                "rule `{rule}` (line {line}) joins {groups} groups of body atoms that share no variables (cartesian product)"
            ),
            DatalogError::ExpensiveRule { rule, line, cost_log2, .. } => write!(
                f,
                "rule `{rule}` (line {line}) has an estimated join search space of 2^{cost_log2} assignments"
            ),
            DatalogError::DuplicateRule { rule, line, first_line, .. } => write!(
                f,
                "rule `{rule}` (line {line}) duplicates the rule at line {first_line}"
            ),
            DatalogError::SubsumedRule { rule, line, by_line, .. } => write!(
                f,
                "rule `{rule}` (line {line}) is subsumed by the more general rule at line {by_line}"
            ),
            DatalogError::ConstantOutOfRange { domain, value } => {
                write!(f, "constant {value} out of range for domain `{domain}`")
            }
            DatalogError::UnresolvedName { domain, name } => write!(
                f,
                "quoted constant \"{name}\" not found in the name map of domain `{domain}`"
            ),
            DatalogError::ConstraintDomainMismatch { rule, .. } => {
                write!(f, "constraint compares different domains in `{rule}`")
            }
            DatalogError::BadFact(m) => write!(f, "bad fact: {m}"),
            DatalogError::ZeroSearchBudget => {
                write!(f, "order search: evaluation budget is zero")
            }
            DatalogError::Bdd(m) => write!(f, "bdd error: {m}"),
        }
    }
}

impl DatalogError {
    /// Builds an [`DatalogError::UnknownRelation`] with the nearest
    /// declared name attached when it is close enough to be a plausible
    /// typo (edit distance at most 2, and less than the name's length).
    pub(crate) fn unknown_relation<'a, I>(name: &str, candidates: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        DatalogError::UnknownRelation {
            name: name.to_string(),
            suggestion: nearest_name(name, candidates),
        }
    }

    /// Builds an [`DatalogError::UnknownDomain`] with a nearest-name
    /// suggestion under the same policy as [`Self::unknown_relation`].
    pub(crate) fn unknown_domain<'a, I>(name: &str, candidates: I, line: usize, col: usize) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        DatalogError::UnknownDomain {
            name: name.to_string(),
            suggestion: nearest_name(name, candidates),
            line,
            col,
        }
    }

    /// True for the advisory variants (`W0xx` codes); false for errors.
    pub fn is_warning(&self) -> bool {
        matches!(
            self,
            DatalogError::UnusedRelation { .. }
                | DatalogError::DeadRule { .. }
                | DatalogError::SingletonVariable { .. }
                | DatalogError::UnreachableRule { .. }
                | DatalogError::CrossProduct { .. }
                | DatalogError::ExpensiveRule { .. }
                | DatalogError::DuplicateRule { .. }
                | DatalogError::SubsumedRule { .. }
        )
    }
}

/// Picks the closest candidate by edit distance when it is a plausible
/// typo (distance at most 2 and less than the name's length), breaking
/// ties by smallest distance then lexicographic order.
pub(crate) fn nearest_name<'a, I>(name: &str, candidates: I) -> Option<String>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        let d = edit_distance(name, cand);
        let better = match best {
            None => true,
            Some((bd, bc)) => d < bd || (d == bd && cand < bc),
        };
        if better {
            best = Some((d, cand));
        }
    }
    best.filter(|&(d, _)| d <= 2 && d < name.chars().count())
        .map(|(_, c)| c.to_string())
}

/// Levenshtein distance over chars; relation names are short, so the
/// quadratic DP is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

impl std::error::Error for DatalogError {}

impl From<whale_bdd::BddError> for DatalogError {
    fn from(e: whale_bdd::BddError) -> Self {
        DatalogError::Bdd(e.to_string())
    }
}
