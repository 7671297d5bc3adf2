"""relkanren: a relational programming engine with a term-rewriting layer
and statistical-model rewrite rules."""

from .terms import (
    ConsCell,
    DecompositionError,
    ImproperListError,
    LogicVar,
    Symbol,
    car,
    cdr,
    cons,
    fresh_var,
    is_ground,
    list_from_term,
    nil,
    term_from_list,
    term_hash,
    to_term,
)
from .exprs import (
    ArityError,
    EvalError,
    ExprTerm,
    NonGroundError,
    OperatorDef,
    OperatorRegistry,
    UnknownOperatorError,
    builtin_registry,
    eval_expr,
    make_expr,
)
from .unify import (
    alpha_eq,
    occurs,
    reify,
    term_eq,
    unify,
    walk,
    walk_star,
)
from .constraints import (
    UnknownPredicateError,
    neq,
    predicate_names,
    revalidate,
    type_constraint,
)
from .goals import (
    ALL,
    State,
    StepBudgetExceeded,
    conde,
    delay,
    eq,
    fail,
    iter_solutions,
    lall,
    lany,
    run,
    run_bounded,
    step_budget,
    succeed,
)
from .relations import (
    GroundednessError,
    conso,
    eq_comm,
    membero,
    permuteo,
    reduceo,
    walko,
)
from .rules import (
    RuleSet,
    beta_binomial_conjugate,
    builtin_rulesets,
    default_registry,
    math_reduce_rule,
    normal_affine_rule,
    normal_sum_rule,
)
from .sexpr import ParseError, parse_sexpr, print_term

__version__ = "0.1.0"
